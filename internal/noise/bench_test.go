package noise_test

import (
	"testing"
	"time"

	"mkos/internal/bsp"
	"mkos/internal/cluster"
	"mkos/internal/noise"
	"mkos/internal/sim"
	"mkos/internal/telemetry"
)

// faultJobNodes is the node count of one job of the Fugaku fault-injection
// sweep (campaigns.FaultPoints with 8 nodes per job).
const faultJobNodes = 8

// faultJobShape returns the Fugaku Linux node profile and the noise horizon
// of one fault-sweep job: the nominal runtime of the faultexp workload on
// faultJobNodes nodes, the horizon bsp.Run builds every node's timeline
// over.
func faultJobShape(b *testing.B) (*noise.Profile, time.Duration) {
	b.Helper()
	p := cluster.Fugaku()
	g := bsp.Geometry{RanksPerNode: 4, ThreadsPerRank: 12}
	m, node, err := p.Machine(cluster.Linux, g)
	if err != nil {
		b.Fatal(err)
	}
	w := bsp.Workload{
		Name: "faultexp", Scaling: bsp.StrongScaling, RefNodes: faultJobNodes,
		Steps: 50, StepCompute: 5 * time.Millisecond,
		WorkingSetPerRank: 64 << 20, MemAccessPeriod: 100 * time.Nanosecond,
	}
	m.Sink = telemetry.NewSink()
	res, err := bsp.Run(w, m, faultJobNodes, 1)
	if err != nil {
		b.Fatal(err)
	}
	return node.OS().NoiseProfile(), res.Breakdown.Total() - res.Breakdown.Noise
}

// BenchmarkProfileTimeline builds one fault-sweep job's worth of node
// timelines per op, on every CPU at once with a RunWith sink installed on
// each goroutine, as in a sweep. "wrapper" calls Profile.Timeline, which
// resolves the sink and the counter handles per timeline; "explicit"
// resolves them once per job and calls TimelineTo, as bsp.Run does.
func BenchmarkProfileTimeline(b *testing.B) {
	prof, horizon := faultJobShape(b)
	job := func(build func(rng *sim.Rand)) {
		base := sim.NewRand(1)
		for n := 0; n < faultJobNodes; n++ {
			build(base.Derive(int64(n)))
		}
	}
	b.Run("wrapper", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			telemetry.RunWith(telemetry.NewSink(), func() {
				for pb.Next() {
					job(func(rng *sim.Rand) { prof.Timeline(horizon, rng) })
				}
			})
		})
	})
	b.Run("explicit", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			telemetry.RunWith(telemetry.NewSink(), func() {
				for pb.Next() {
					c := prof.Counters(telemetry.Default())
					job(func(rng *sim.Rand) { prof.TimelineTo(c, horizon, rng) })
				}
			})
		})
	})
}
