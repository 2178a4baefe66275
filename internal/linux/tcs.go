package linux

import (
	"time"

	"mkos/internal/cpu"
	"mkos/internal/sim"
	"mkos/internal/telemetry"
)

// TCSCollector models the Fujitsu Technical Computing Suite job-operation
// component that "collects PMU counters to obtain number of execution
// cycles, floating-point instruction operations, memory read requests,
// memory write requests, and sleep cycles" (Sec. 4.2.1). The reads execute
// in kernel space on *every* core via IPIs even when initiated from an
// assistant core — the interference the paper eliminated with a per-job
// stop command.
type TCSCollector struct {
	pmus    []*cpu.PMU
	period  time.Duration
	stopped bool
	ticker  *sim.Ticker

	samples []TCSSample
	readOps uint64
	sink    *telemetry.Sink // receives the collection counters and instants
}

// TCSSample is one fleet-wide counter snapshot.
type TCSSample struct {
	At        sim.Time
	Cycles    uint64
	FPOps     uint64
	MemReads  uint64
	MemWrites uint64
	Sleep     uint64
}

// NewTCSCollector builds the collector over one PMU per core. It publishes
// into the sink of the scope it is built in.
func NewTCSCollector(cores int, period time.Duration) *TCSCollector {
	if period <= 0 {
		period = 11 * time.Second
	}
	pmus := make([]*cpu.PMU, cores)
	for i := range pmus {
		pmus[i] = &cpu.PMU{}
	}
	return &TCSCollector{pmus: pmus, period: period, sink: telemetry.Default()}
}

// PMU returns core c's counter block (for workload models to account into).
func (t *TCSCollector) PMU(c int) *cpu.PMU {
	if c < 0 || c >= len(t.pmus) {
		return nil
	}
	return t.pmus[c]
}

// Start schedules the periodic collection on the engine, beginning one
// period in.
func (t *TCSCollector) Start(e *sim.Engine) {
	t.stopped = false
	t.ticker = e.Every(e.Now().Add(t.period), t.period, "tcs-pmu-read", func(en *sim.Engine) {
		t.collect(en.Now())
	})
}

// collect reads every core's PMU remotely (IPIs) and aggregates.
func (t *TCSCollector) collect(at sim.Time) {
	if t.stopped {
		return
	}
	var s TCSSample
	s.At = at
	for _, p := range t.pmus {
		snap := p.Read(true) // remote read: counts an IPI into that core
		s.Cycles += snap.Cycles
		s.FPOps += snap.FPOps
		t.readOps++
	}
	t.sink.C("linux.tcs.pmu_reads").Add(int64(len(t.pmus)))
	t.sink.Instant("linux", "tcs-pmu-sweep", 0, 0, at)
	for _, p := range t.pmus {
		s.MemReads += p.MemReads
		s.MemWrites += p.MemWrites
		s.Sleep += p.SleepCycles
	}
	t.samples = append(t.samples, s)
}

// Stop is the per-job command of Sec. 4.2.1: it halts the automatic reads
// (and with them the IPI noise) for the rest of the job.
func (t *TCSCollector) Stop() {
	t.stopped = true
	if t.ticker != nil {
		t.ticker.Stop()
	}
}

// Samples returns the collected snapshots.
func (t *TCSCollector) Samples() []TCSSample { return t.samples }

// IPIsDelivered returns the total cross-core PMU reads performed — each one
// interrupted an application core.
func (t *TCSCollector) IPIsDelivered() uint64 { return t.readOps }
