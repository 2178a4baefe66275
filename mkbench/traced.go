package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"mkos/internal/apps"
	"mkos/internal/cluster"
	"mkos/internal/noise"
	"mkos/internal/sim"
	"mkos/internal/telemetry"
	"mkos/internal/telemetry/ops"
)

// traceDir is where the traced run writes its Chrome trace, relative to the
// directory the benchmark runs in.
const traceDir = ".bench_build/traces"

// runTraced makes one untraced timed call (CPU-profiled, for the layer
// shares), then the traced replay, checks the replay reproduced the
// untraced output, runs the replay-only probes, and reports every
// per-layer metric.
func runTraced(ctx context.Context, w workload, seed int64) (*report, error) {
	rep := newReport(perLayer)
	inst, err := setUp(w, seed)
	if err != nil {
		return nil, err
	}

	// The profiled call also warms the process up for the baseline.
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	_, ref, err := measure(ctx, inst.run)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	m, again, err := measure(ctx, inst.run)
	if err != nil {
		return nil, err
	}

	tr := ops.New(1 << 20)
	rec := &recorder{}
	tm, replayed, err := measure(ops.Attach(ctx, tr), func(ctx context.Context) (*output, error) {
		return inst.traced(ctx, rec)
	})
	if err != nil {
		return nil, err
	}
	rep.digest = ref.digest
	rep.attempted = 3 * inst.ops
	rep.failed = countFailures(nil, ref) + countFailures(ref, again) + countFailures(ref, replayed)
	if replayed.digest != ref.digest {
		// Without a faithful replay the spans describe some other
		// computation; the per-layer numbers below are then meaningless.
		fmt.Fprintf(os.Stderr, "mkbench: traced replay digest %s differs from the untraced %s\n",
			replayed.digest, ref.digest)
		rep.correct = false
	}
	fmt.Printf("  replay reproduces the untraced output: %v\n", replayed.digest == ref.digest)

	var chrome bytes.Buffer
	if err := tr.WriteChromeTrace(&chrome); err != nil {
		return nil, err
	}
	if dropped := tr.Dropped(); dropped > 0 {
		return nil, fmt.Errorf("trace buffer dropped %d spans", dropped)
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", w.name, seed))
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, chrome.Bytes(), 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("  trace: %s\n", path)
	spans, err := parseSpans(chrome.Bytes())
	if err != nil {
		return nil, err
	}

	shares, err := layerShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for name, v := range shares {
		rep.set(name, v)
	}
	fillLayers(rep, ref, rec, spans)
	if err := probe(rep, rec); err != nil {
		return nil, err
	}
	speedup := 0.0
	if ref.shard != nil {
		// The same machine run on one shard, untraced.
		cfg, err := machineConfig(seed, 1)
		if err != nil {
			return nil, err
		}
		one, _, err := measure(ctx, func(context.Context) (*output, error) {
			res, sres, err := apps.FWQMachine(cfg)
			if err != nil {
				return nil, err
			}
			return machineOutput(res, sres)
		})
		if err != nil {
			return nil, err
		}
		speedup = one.wall.Seconds() / m.wall.Seconds()
	}
	rep.set("shard.speedup", speedup)

	rep.set("go.gc_cycles", float64(m.gcCycles))
	rep.set("go.gc_pause_ms", float64(m.gcPause)/1e6)
	rep.set("go.peak_rss_mb", peakRSSMB())
	rep.set("trace.overhead_s", tm.wall.Seconds()-m.wall.Seconds())
	rep.set("trace.spans", float64(len(spans)))
	fmt.Printf("  untraced wall %.3fs, traced wall %.3fs\n", m.wall.Seconds(), tm.wall.Seconds())
	return rep, nil
}

// span is one completed span of the exported trace.
type span struct {
	name string
	dur  time.Duration
	args map[string]string
}

// parseSpans reads the complete spans back out of the exported Chrome trace,
// so the per-layer numbers come from exactly the artifact a viewer loads.
func parseSpans(chrome []byte) ([]span, error) {
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Dur  float64           `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &doc); err != nil {
		return nil, fmt.Errorf("parsing the exported trace: %w", err)
	}
	var out []span
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			out = append(out, span{ev.Name, time.Duration(ev.Dur * float64(time.Microsecond)), ev.Args})
		}
	}
	return out, nil
}

// durations returns the named spans' durations in ms; per, when non-empty,
// divides each by that integer argument of the span (per-node times).
func durations(spans []span, name, per string) (ms []float64, total int) {
	for _, s := range spans {
		if s.name != name {
			continue
		}
		d := float64(s.dur) / float64(time.Millisecond)
		if per != "" {
			n, _ := strconv.Atoi(s.args[per])
			if n <= 0 {
				continue
			}
			d /= float64(n)
			total += n
		} else {
			total++
		}
		ms = append(ms, d)
	}
	return ms, total
}

// setTiming reports a timing as its median under p50 and its tail
// percentile under tail, and prints which percentile that was and over how
// many samples.
func setTiming(rep *report, p50, tail string, xs []float64) {
	pct, v := tailPercentile(xs)
	rep.set(p50, median(xs))
	rep.set(tail, v)
	if len(xs) > 0 {
		fmt.Printf("  %-32s n=%d p50=%.4g p%.4g=%.4g\n", p50, len(xs), median(xs), pct, v)
	}
}

// fillLayers derives the per-layer metrics from the untraced call's outcome,
// the replay's spans and what the recorder saw.
func fillLayers(rep *report, ref *output, rec *recorder, spans []span) {
	var trialMS []float64
	var payload int
	reg := telemetry.NewRegistry()
	if o := ref.outcome; o != nil {
		for _, r := range o.Results {
			trialMS = append(trialMS, float64(r.Wall)/float64(time.Millisecond))
			payload += len(r.Payload)
		}
		rep.set("sweep.pool_utilization", o.Ops.Gauge("sweep.pool.utilization").Value())
		reg = o.Registry
	} else {
		rep.set("sweep.pool_utilization", 0)
		if ref.shard != nil {
			reg = ref.shard.Registry
		}
	}
	rep.set("sweep.trials", float64(len(trialMS)))
	setTiming(rep, "sweep.trial_ms_p50", "sweep.trial_ms_ptail", trialMS)
	rep.set("sweep.payload_kb", float64(payload)/1024)

	snap := reg.Snapshot()
	var noiseEvents int64
	for name, v := range snap.Counters {
		if strings.Contains(name, ".noise.events.") {
			noiseEvents += v
		}
	}
	rep.set("noise.events", float64(noiseEvents))
	rep.set("bsp.runs", float64(snap.Counters["bsp.runs"]))

	// Node builds the replay expanded, plus those inside the recovery
	// scheduler's attempts (one representative node each).
	_, builds := durations(spans, "cluster.node_build", "")
	rep.set("cluster.node_builds", float64(builds)+float64(snap.Counters["cluster.attempts"]))
	for _, t := range []struct{ metric, span string }{
		{"linux.new_kernel_ms", "linux.new_kernel"},
		{"ihk.reserve_memory_ms", "ihk.reserve_memory"},
		{"mckernel.boot_ms", "mckernel.boot"},
	} {
		xs, _ := durations(spans, t.span, "")
		setTiming(rep, t.metric, t.metric+"_ptail", xs)
	}
	_, reserves := durations(spans, "ihk.reserve_memory", "")
	rep.set("ihk.reserves", float64(reserves))
	rep.set("mem.buddy_allocs", float64(rec.buddyAllocs))
	rep.set("mem.buddy_splits", float64(rec.buddySplits))

	if len(rec.bspRuns) == 0 {
		// Otherwise the runs were not spanned and the bsp probe times them.
		bspMS, _ := durations(spans, "bsp.run", "")
		setTiming(rep, "bsp.run_ms_p50", "bsp.run_ms_ptail", bspMS)
	}

	fwq, n1 := durations(spans, "apps.fwq_across_nodes", "nodes")
	sketch, n2 := durations(spans, "apps.fwq_sketch_across_nodes", "nodes")
	setTiming(rep, "apps.fwq_node_ms", "apps.fwq_node_ms_ptail", fwq)
	setTiming(rep, "apps.fwq_sketch_node_ms", "apps.fwq_sketch_node_ms_ptail", sketch)
	rep.set("apps.fwq_nodes", float64(n1+n2))
	merges, nMerges := durations(spans, "noise.merge", "")
	rep.set("noise.merge_ms", median(merges))
	rep.set("noise.merges", float64(nMerges))

	submits, nSubmits := durations(spans, "cluster.submit", "")
	rep.set("cluster.submits", float64(nSubmits))
	setTiming(rep, "cluster.submit_ms_p50", "cluster.submit_ms_ptail", submits)

	// Engine throughput over the spans that drive engines: job submissions
	// and the sharded machine run.
	engineMS, _ := durations(spans, "apps.fwq_machine", "")
	engineMS = append(engineMS, submits...)
	var busy float64
	for _, d := range engineMS {
		busy += d
	}
	rep.set("sim.events_fired", float64(rec.eventsFired))
	rep.set("sim.queue_high_water", float64(rec.queueHigh))
	eps := 0.0
	if busy > 0 {
		eps = float64(rec.eventsFired) / (busy / 1e3)
	}
	rep.set("sim.events_per_s", eps)
	rep.set("fault.injected", float64(rec.injected))

	rep.set("shard.windows", float64(rec.shardWindows))
	rep.set("shard.cross_messages", float64(rec.shardCross))
	rep.set("shard.barrier_wait_ms", float64(rec.shardBarrierWait)/float64(time.Millisecond))
}

// tracedMachine is the machine run with MachineFWQ's class boot expanded
// (one representative node per class present, exactly as it picks them) and
// the sharded run observed window by window.
func tracedMachine(ctx context.Context, cfg apps.FWQMachineConfig, rec *recorder) (*output, error) {
	ctx, s := ops.Start(ctx, "replay.machine")
	defer s.End()
	p := cluster.Fugaku()
	reps := make([]int, p.NodeClasses)
	for i := range reps {
		reps[i] = -1
	}
	for idx, found := 0, 0; idx < cfg.Nodes && found < p.NodeClasses; idx++ {
		if c := p.NodeClass(idx); reps[c] == -1 {
			reps[c] = idx
			found++
		}
	}
	cfg.Classes = nil
	for _, idx := range reps {
		if idx == -1 {
			continue
		}
		node, err := buildNode(ctx, rec, p, idx, cluster.Linux)
		if err != nil {
			return nil, err
		}
		cfg.Classes = append(cfg.Classes, apps.FWQClass{Cores: node.AppCores(), Profile: node.OS().NoiseProfile()})
	}
	ctx, run := ops.Start(ctx, "apps.fwq_machine", arg("nodes", cfg.Nodes), arg("shards", cfg.Shards))
	obs := &shardObserver{ctx: ctx, done: map[int]time.Time{}}
	cfg.Observer = obs
	res, sres, err := apps.FWQMachine(cfg)
	run.End()
	if err != nil {
		return nil, err
	}
	profile := cfg.Classes[0].Profile
	rec.addTimelines(timelineJob{
		profile: func() (*noise.Profile, error) { return profile, nil },
		horizon: cfg.Duration, seed: cfg.Seed, nodes: cfg.Nodes + len(res.Worst), runs: 1,
	})
	rec.addEngine(sres.Stats.Events, 0, 0)
	rec.mu.Lock()
	rec.shardWindows = sres.Stats.Windows
	rec.shardCross = sres.Stats.CrossMessages
	rec.shardBarrierWait = obs.wait
	rec.mu.Unlock()
	return machineOutput(res, sres)
}

// shardObserver spans each conservative window of a sharded run and sums
// the barrier wait: per window, how long each shard sat finished while the
// slowest shard was still advancing.
type shardObserver struct {
	ctx  context.Context
	mu   sync.Mutex
	open *ops.Span
	done map[int]time.Time
	wait time.Duration
}

func (o *shardObserver) WindowStart(w int, _ sim.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	_, o.open = ops.Start(o.ctx, "shard.window", arg("window", w))
}

func (o *shardObserver) ShardDone(s, _ int) {
	now := time.Now()
	o.mu.Lock()
	o.done[s] = now
	o.mu.Unlock()
}

func (o *shardObserver) Exchanged(cross, n int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.open == nil {
		return // the exchange after set-up precedes the first window
	}
	var last time.Time
	for _, t := range o.done {
		if t.After(last) {
			last = t
		}
	}
	for s, t := range o.done {
		o.wait += last.Sub(t)
		delete(o.done, s)
	}
	o.open.End(arg("cross", cross), arg("messages", n))
	o.open = nil
}

// peakRSSMB reads the process's peak resident set from /proc.
func peakRSSMB() float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
