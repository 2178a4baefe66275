package ihk

import (
	"testing"

	"mkos/internal/cpu"
	"mkos/internal/linux"
)

// BenchmarkReserveMemory times IHK's memory reservation on a freshly booted
// Linux node at the platform presets' shapes: OFP detaches 16 GiB from each
// KNL domain in 4 MiB blocks, Fugaku 6 GiB from each A64FX CMG in 512 MiB
// blocks. The kernel is built with the timer stopped. The round-trip case
// reserves, releases and reserves again, so the released blocks' return to
// the front of the free lists is timed too.
func BenchmarkReserveMemory(b *testing.B) {
	for _, c := range []struct {
		name      string
		topo      func() *cpu.Topology
		tune      linux.Tuning
		memBytes  int64
		bytes     int64
		roundTrip bool
	}{
		{"ofp", cpu.KNL, linux.OFPTuning(), 112 << 30, 16 << 30, false},
		{"ofp-roundtrip", cpu.KNL, linux.OFPTuning(), 112 << 30, 16 << 30, true},
		{"fugaku", func() *cpu.Topology { return cpu.A64FX(2) }, linux.FugakuTuning(), 32 << 30, 6 << 30, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				host, err := linux.NewKernel(c.topo(), c.tune, c.memBytes)
				if err != nil {
					b.Fatal(err)
				}
				m := NewManager(host)
				b.StartTimer()
				if err := m.ReserveMemory(c.bytes); err != nil {
					b.Fatal(err)
				}
				if !c.roundTrip {
					continue
				}
				if err := m.ReleaseMemory(); err != nil {
					b.Fatal(err)
				}
				if err := m.ReserveMemory(c.bytes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
