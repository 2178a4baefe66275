package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"mkos/internal/bsp"
	"mkos/internal/noise"
	"mkos/internal/sim"
	"mkos/internal/telemetry"
)

// The replay-only probes re-run single layer operations outside the traced
// interval, at the inputs the replay recorded, where a span around a whole
// trial would be too coarse or the replay cannot place one: noise timeline
// construction at each trial's own horizon and seeds, bsp runs inside the
// recovery scheduler, RNG stream derivation, and telemetry lookups.

const (
	// maxTimelineSamples bounds the timelines the noise probe rebuilds;
	// they are spread evenly over the recorded timeline batches.
	maxTimelineSamples = 400
	// maxBSPSamples bounds the bsp runs the bsp probe re-times; they are
	// spread evenly over the recorded runs.
	maxBSPSamples = 200
	// probeBatch is how many operations one timed batch of a fast probe
	// runs; probeBatches batches give the median.
	probeBatch   = 200
	probeBatches = 100
)

func probe(rep *report, rec *recorder) error {
	if err := probeTimelines(rep, rec.timelines); err != nil {
		return err
	}
	if len(rec.bspRuns) > 0 {
		if err := probeBSP(rep, rec.bspRuns); err != nil {
			return err
		}
	}
	probeDerive(rep)
	probeTelemetry(rep)
	return nil
}

// probeTimelines rebuilds a sample of the recorded timelines and counts
// every timeline the workload built and the stream derivations they took:
// one per node plus one per noise source.
func probeTimelines(rep *report, jobs []timelineJob) error {
	profiles := make([]*noise.Profile, len(jobs))
	var timelines, derives, sampled int
	for i, j := range jobs {
		p, err := j.profile()
		if err != nil {
			return fmt.Errorf("noise probe: %w", err)
		}
		profiles[i] = p
		timelines += j.nodes * j.runs
		derives += j.nodes * j.runs * (1 + len(p.Sources))
		if j.horizon > 0 {
			sampled++
		}
	}
	perJob := 1
	if sampled > 0 && maxTimelineSamples/sampled > 1 {
		perJob = maxTimelineSamples / sampled
	}
	var us []float64
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for i, j := range jobs {
		if j.horizon == 0 {
			continue
		}
		base := sim.NewRand(j.seed)
		for n := 0; n < j.nodes && n < perJob; n++ {
			rng := base.Derive(int64(n))
			t0 := time.Now()
			profiles[i].Timeline(j.horizon, rng)
			us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
		}
	}
	runtime.ReadMemStats(&ms1)
	rep.set("noise.timelines", float64(timelines))
	setTiming(rep, "noise.timeline_us_p50", "noise.timeline_us_ptail", us)
	rep.set("noise.timeline_samples", float64(len(us)))
	allocKB := 0.0
	if len(us) > 0 {
		// Includes the per-node stream derivation the timeline consumes.
		allocKB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(len(us)) / 1024
	}
	rep.set("noise.timeline_alloc_kb", allocKB)
	rep.set("sim.derives", float64(derives))
	return nil
}

// probeBSP re-times an even sample of the bsp runs the replay could not
// span, each on a freshly built machine of the run's platform and OS, and
// checks that every re-run reproduces the runtime the job recorded.
func probeBSP(rep *report, jobs []bspJob) error {
	step := 1
	if len(jobs) > maxBSPSamples {
		step = len(jobs) / maxBSPSamples
	}
	var ms []float64
	mismatched := 0
	for i := 0; i < len(jobs) && len(ms) < maxBSPSamples; i += step {
		j := jobs[i]
		m, _, err := j.platform.Machine(j.kind, j.geometry)
		if err != nil {
			return fmt.Errorf("bsp probe: %w", err)
		}
		t0 := time.Now()
		res, err := bsp.Run(j.workload, m, j.nodes, j.seed)
		ms = append(ms, float64(time.Since(t0))/float64(time.Millisecond))
		if err != nil {
			return fmt.Errorf("bsp probe: %w", err)
		}
		if res.Runtime != j.runtime {
			mismatched++
		}
	}
	if mismatched > 0 {
		fmt.Fprintf(os.Stderr, "mkbench: %d of %d re-timed bsp runs differ from the job's runtime\n",
			mismatched, len(ms))
		rep.correct = false
	}
	fmt.Printf("  bsp probe reproduces the jobs' runtimes: %v\n", mismatched == 0)
	setTiming(rep, "bsp.run_ms_p50", "bsp.run_ms_ptail", ms)
	return nil
}

// probeDerive times sim.Rand.Derive, the per-node and per-source stream
// seeding every timeline pays.
func probeDerive(rep *report) {
	base := sim.NewRand(1)
	var keep *sim.Rand
	var ns []float64
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for b := 0; b < probeBatches; b++ {
		t0 := time.Now()
		for i := 0; i < probeBatch; i++ {
			keep = base.Derive(int64(i))
		}
		ns = append(ns, float64(time.Since(t0))/probeBatch)
	}
	runtime.ReadMemStats(&ms1)
	_ = keep
	rep.set("sim.derive_ns", median(ns))
	rep.set("sim.derive_alloc_b", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(probeBatch*probeBatches))
}

// probeTelemetry times a counter lookup through the package-level helper
// with no goroutine-local sink installed, and again with one sink per CPU
// live under telemetry.RunWith, the state every sweep trial runs in.
func probeTelemetry(rep *report) {
	rep.set("telemetry.lookup_ns_plain", median(lookupNS()))

	n := runtime.NumCPU()
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	per := make([]float64, n)
	for g := 0; g < n; g++ {
		ready.Add(1)
		done.Add(1)
		go func(g int) {
			defer done.Done()
			telemetry.RunWith(telemetry.NewSink(), func() {
				ready.Done()
				<-start
				per[g] = median(lookupNS())
			})
		}(g)
	}
	ready.Wait()
	close(start)
	done.Wait()
	rep.set("telemetry.lookup_ns_in_sweep", median(per))
}

// lookupNS returns the per-lookup time of each batch of telemetry.C calls.
func lookupNS() []float64 {
	var ns []float64
	for b := 0; b < probeBatches; b++ {
		t0 := time.Now()
		for i := 0; i < probeBatch; i++ {
			telemetry.C("mkbench.probe").Inc()
		}
		ns = append(ns, float64(time.Since(t0))/probeBatch)
	}
	return ns
}
