// Package campaigns builds sweep.Campaign values for the repository's
// experiment families — the Figure 5-7 application sweeps, the Table 2
// countermeasure matrix, the Figure 3 noise series, the interference
// attribution, the Figure 4 noise CDFs, the fault-injection degradation
// curves, the Sec. 6.3 full-machine FWQ and the operational probe — and
// renders their outcomes, one renderer per family, in the formats of the
// committed results/*.txt files. cmd/repro and cmd/sweep both reach them
// through the declarative Spec, shard them over the same orchestrator and
// print them through the same renderers.
//
// Every builder follows the same rules: trial keys are canonical and
// zero-padded so key order equals presentation order, specs carry the full
// parameter set (they are the cache identity), and payloads are plain
// JSON-round-trippable values from core/fault/linux so cached and freshly
// executed trials are indistinguishable to the merge step.
package campaigns

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"mkos/internal/apps"
	"mkos/internal/bsp"
	"mkos/internal/cluster"
	"mkos/internal/core"
	"mkos/internal/fault"
	"mkos/internal/kernel"
	"mkos/internal/linux"
	"mkos/internal/mckernel"
	"mkos/internal/noise"
	"mkos/internal/sim"
	"mkos/internal/sweep"
)

// --- Figures 5-7: application comparison points ----------------------------

// FigurePointSpec parameterizes one (figure, app, platform, node-count)
// comparison trial. Seeds pins the per-run seeds explicitly (the historical
// cmd behavior: -seed s with -runs r uses s..s+r-1); when empty, Runs seeds
// derive from the trial's own sweep seed, so campaign-seed changes re-execute
// the point.
type FigurePointSpec struct {
	Figure   string  `json:"figure"`
	Platform string  `json:"platform"`
	App      string  `json:"app"`
	Nodes    int     `json:"nodes"`
	Seeds    []int64 `json:"seeds,omitempty"`
	Runs     int     `json:"runs,omitempty"`
}

// FigurePointKey is the canonical trial key for a figure point; node counts
// are zero-padded so lexicographic key order walks each panel bottom-up.
func FigurePointKey(figure, platform, app string, nodes int) string {
	return fmt.Sprintf("fig%s/%s/%s/n%06d", figure, platform, app, nodes)
}

// FigurePoints enumerates one trial per (spec, node count) across the given
// figure specs, mirroring core.Sweep's skip of node counts above an app's
// maximum so merged output matches the serial path exactly.
func FigurePoints(name string, specs []core.FigureSpec, seeds []int64, runs int, campaignSeed int64) (*sweep.Campaign, error) {
	c := &sweep.Campaign{Name: name, Seed: campaignSeed}
	for _, spec := range specs {
		app, err := apps.ByName(spec.App, spec.Platform)
		if err != nil {
			return nil, fmt.Errorf("campaigns: figure %s: %w", spec.Figure, err)
		}
		for _, n := range spec.Nodes {
			if n > app.MaxNodes {
				continue
			}
			ps := FigurePointSpec{
				Figure: spec.Figure, Platform: string(spec.Platform), App: spec.App,
				Nodes: n, Seeds: append([]int64(nil), seeds...), Runs: runs,
			}
			c.Trials = append(c.Trials, sweep.Trial{
				Key:  FigurePointKey(ps.Figure, ps.Platform, ps.App, ps.Nodes),
				Spec: ps,
				Run: func(t *sweep.T) (any, error) {
					return runFigurePoint(ps, t)
				},
			})
		}
	}
	return c, nil
}

func runFigurePoint(ps FigurePointSpec, t *sweep.T) (core.Comparison, error) {
	app, err := apps.ByName(ps.App, apps.PlatformName(ps.Platform))
	if err != nil {
		return core.Comparison{}, err
	}
	seeds := ps.Seeds
	if len(seeds) == 0 {
		runs := ps.Runs
		if runs <= 0 {
			runs = 1
		}
		for i := 0; i < runs; i++ {
			seeds = append(seeds, t.Seed+int64(i))
		}
	}
	return core.Compare(core.PlatformFor(apps.PlatformName(ps.Platform)), app, ps.Nodes, seeds)
}

// --- Table 2: countermeasure matrix ----------------------------------------

// Table2Spec parameterizes one countermeasure row.
type Table2Spec struct {
	Disabled string        `json:"disabled"`
	Nodes    int           `json:"nodes"`
	Duration time.Duration `json:"duration"`
	Seed     int64         `json:"seed"`
}

// Table2Key returns the canonical key of row i; the index prefix keeps key
// order equal to the paper's row order.
func Table2Key(i int, disabled string) string {
	return fmt.Sprintf("table2/%02d-%s", i, slug(disabled))
}

// Table2 enumerates one trial per countermeasure row of the table.
func Table2(cfg core.Table2Config, campaignSeed int64) *sweep.Campaign {
	c := &sweep.Campaign{Name: "table2", Seed: campaignSeed}
	for i, disabled := range core.Table2Variants() {
		ts := Table2Spec{Disabled: disabled, Nodes: cfg.Nodes, Duration: cfg.Duration, Seed: cfg.Seed}
		c.Trials = append(c.Trials, sweep.Trial{
			Key:  Table2Key(i, disabled),
			Spec: ts,
			Run: func(*sweep.T) (any, error) {
				return core.Table2Variant(core.Table2Config{
					Nodes: ts.Nodes, Duration: ts.Duration, Seed: ts.Seed,
				}, ts.Disabled)
			},
		})
	}
	return c
}

// --- Figure 3 and attribution: single-node noise under a countermeasure ---

// CountermeasureSpec parameterizes one single-node noise trial on Fugaku
// Linux with the countermeasure named by its short name disabled.
type CountermeasureSpec struct {
	Countermeasure string        `json:"countermeasure"`
	Duration       time.Duration `json:"duration"`
	Seed           int64         `json:"seed"`
}

// countermeasureKey prefixes the short name with its table index, so key
// order equals Table 2 row order whatever order a spec lists them in.
func countermeasureKey(family, cm string) string {
	return fmt.Sprintf("%s/%02d-%s", family, slices.Index(core.Countermeasures(), cm), cm)
}

// Figure3Key returns the canonical key of the Figure 3 series for cm.
func Figure3Key(cm string) string { return countermeasureKey("figure3", cm) }

// AttributionKey returns the canonical key of the attribution report for cm.
func AttributionKey(cm string) string { return countermeasureKey("attribution", cm) }

// Figure3 enumerates one noise-length series trial per countermeasure: FWQ
// with 6.5 ms quanta on the first application core of one node. The payload
// is the series of noise lengths ([]time.Duration).
func Figure3(countermeasures []string, dur time.Duration, seed, campaignSeed int64) *sweep.Campaign {
	c := &sweep.Campaign{Name: "figure3", Seed: campaignSeed}
	for _, cm := range countermeasures {
		cs := CountermeasureSpec{Countermeasure: cm, Duration: dur, Seed: seed}
		c.Trials = append(c.Trials, sweep.Trial{
			Key:  Figure3Key(cm),
			Spec: cs,
			Run:  func(*sweep.T) (any, error) { return runFigure3(cs) },
		})
	}
	return c
}

func runFigure3(cs CountermeasureSpec) ([]time.Duration, error) {
	p, err := core.CountermeasurePlatform(cs.Countermeasure)
	if err != nil {
		return nil, err
	}
	node, err := p.NewNode(cluster.Linux)
	if err != nil {
		return nil, err
	}
	cfg := apps.FWQConfig{Work: 6500 * time.Microsecond, Duration: cs.Duration, Cores: node.AppCores()[:1]}
	analyses, _, err := apps.FWQAcrossNodes(cfg, node.Host, 1, cs.Seed)
	if err != nil {
		return nil, err
	}
	return analyses[0].Lengths, nil
}

// Attribution enumerates the one-trial attribution family: the per-source
// stolen time on application cores ([]linux.Attribution).
func Attribution(cm string, dur time.Duration, seed, campaignSeed int64) *sweep.Campaign {
	cs := CountermeasureSpec{Countermeasure: cm, Duration: dur, Seed: seed}
	return &sweep.Campaign{Name: "attribution", Seed: campaignSeed, Trials: []sweep.Trial{{
		Key:  AttributionKey(cm),
		Spec: cs,
		Run:  func(*sweep.T) (any, error) { return runAttribution(cs) },
	}}}
}

func runAttribution(cs CountermeasureSpec) ([]linux.Attribution, error) {
	p, err := core.CountermeasurePlatform(cs.Countermeasure)
	if err != nil {
		return nil, err
	}
	node, err := p.NewNode(cluster.Linux)
	if err != nil {
		return nil, err
	}
	return node.Host.AttributeProfile(cs.Duration, cs.Seed), nil
}

// --- Figure 4: noise CDF curves --------------------------------------------

// Figure4Key returns the canonical key of curve ci in iteration it.
func Figure4Key(it, ci int, label string) string {
	return fmt.Sprintf("figure4/it%03d/%02d-%s", it, ci, label)
}

// Figure4 enumerates iterations x curves trials: each of the figure's five
// curves, measured `iterations` times with derived seeds (the paper runs ten
// ~6-minute iterations to cover an hour of noise). MergeFigure4 folds the
// outcome back into per-curve distributions.
func Figure4(cfg core.Figure4Config, iterations int, campaignSeed int64) *sweep.Campaign {
	if iterations < 1 {
		iterations = 1
	}
	c := &sweep.Campaign{Name: "figure4", Seed: campaignSeed}
	for it := 0; it < iterations; it++ {
		iterCfg := cfg
		// The historical noiseprofile seed schedule: iteration i offsets the
		// base seed by i*1000003.
		iterCfg.Seed = cfg.Seed + int64(it)*1000003
		for ci, cs := range core.Figure4CurveSpecs(iterCfg) {
			cs := cs
			c.Trials = append(c.Trials, sweep.Trial{
				Key:  Figure4Key(it, ci, cs.Label),
				Spec: cs,
				Run: func(*sweep.T) (any, error) {
					return core.Figure4Curve(cs)
				},
			})
		}
	}
	return c
}

// MergeFigure4 reassembles an outcome of Figure4 trials into the figure's
// curves, merging each curve's distributions across iterations in iteration
// order.
func MergeFigure4(o *sweep.Outcome, cfg core.Figure4Config, iterations int) ([]core.CDFCurve, error) {
	if iterations < 1 {
		iterations = 1
	}
	specs := core.Figure4CurveSpecs(cfg)
	curves := make([]core.CDFCurve, len(specs))
	for ci, cs := range specs {
		dists := make([]*noise.IterationDist, 0, iterations)
		for it := 0; it < iterations; it++ {
			var c core.CDFCurve
			if err := o.Payload(Figure4Key(it, ci, cs.Label), &c); err != nil {
				return nil, err
			}
			dists = append(dists, c.CDF)
		}
		curves[ci] = core.CDFCurve{Label: cs.Label, Nodes: cs.Nodes, CDF: noise.MergeDists(dists)}
	}
	return curves, nil
}

// --- Fault-injection degradation sweep -------------------------------------

// FaultPointSpec parameterizes one (intensity, OS) sweep point: a batch of
// jobs under one kernel configuration with recovery enabled.
type FaultPointSpec struct {
	Platform  string      `json:"platform"`
	OS        string      `json:"os"`
	Intensity float64     `json:"intensity"`
	Rates     fault.Rates `json:"rates"`
	Jobs      int         `json:"jobs"`
	Nodes     int         `json:"nodes"`
	Seed      int64       `json:"seed"`
}

// FaultPointResult is the payload of one fault sweep point: the structured
// failure report plus its byte-deterministic rendering.
type FaultPointResult struct {
	Report fault.FailureReport `json:"report"`
	Text   string              `json:"text"`
}

// FaultKey returns the canonical key of a sweep point; the fixed-width
// intensity keeps key order equal to sweep order.
func FaultKey(s FaultPointSpec) string {
	return fmt.Sprintf("fault/%s/x%06.2f/%s", s.Platform, s.Intensity, s.OS)
}

// FaultSweep enumerates one trial per spec.
func FaultSweep(name string, specs []FaultPointSpec, campaignSeed int64) *sweep.Campaign {
	c := &sweep.Campaign{Name: name, Seed: campaignSeed}
	for _, s := range specs {
		s := s
		c.Trials = append(c.Trials, sweep.Trial{
			Key:  FaultKey(s),
			Spec: s,
			Run: func(t *sweep.T) (any, error) {
				return runFaultPoint(t, s)
			},
		})
	}
	return c
}

func runFaultPoint(t *sweep.T, s FaultPointSpec) (FaultPointResult, error) {
	var p *cluster.Platform
	switch s.Platform {
	case "fugaku":
		p = cluster.Fugaku()
	case "ofp", "oakforest-pacs":
		p = cluster.OFP()
	default:
		return FaultPointResult{}, fmt.Errorf("campaigns: unknown platform %q", s.Platform)
	}
	os := cluster.Linux
	if s.OS == "mckernel" {
		os = cluster.McKernel
	}
	r, err := runBatch(t, p, s.Rates, "faultexp", 50, s.Nodes, os, s.Jobs, s.Seed)
	if err != nil {
		return FaultPointResult{}, err
	}
	return FaultPointResult{Report: *r, Text: r.String()}, nil
}

// runBatch submits jobs jobs of a strong-scaling workload (steps 5 ms steps
// on nodes nodes, 4 ranks per node) to a resilient scheduler on p under
// faults at rates (injector seed seed, job j seed*1000+j); terminal job
// failures are part of the measurement. Its recovery engine is attached to
// t, so a trial cancel stops it at a deterministic event boundary mid-job.
func runBatch(t *sweep.T, p *cluster.Platform, rates fault.Rates, name string, steps, nodes int,
	os cluster.OSKind, jobs int, seed int64) (*fault.FailureReport, error) {
	g := bsp.Geometry{RanksPerNode: 4, ThreadsPerRank: 12}
	if p.Name == "oakforest-pacs" {
		g.ThreadsPerRank = 16
	}
	w := bsp.Workload{
		Name: name, Scaling: bsp.StrongScaling, RefNodes: nodes,
		Steps: steps, StepCompute: 5 * time.Millisecond,
		WorkingSetPerRank: 64 << 20, MemAccessPeriod: 100 * time.Nanosecond,
	}
	rs, err := cluster.NewResilientScheduler(p, fault.NewInjector(rates, seed), cluster.DefaultRecoveryPolicy())
	if err != nil {
		return nil, err
	}
	t.AttachEngine(rs.Engine)
	for j := 0; j < jobs; j++ {
		if t.Canceled() {
			return nil, sweep.ErrTrialCanceled
		}
		if _, err := rs.Submit(w, g, nodes, os, seed*1000+int64(j)); errors.Is(err, sim.ErrCanceled) {
			return nil, sweep.ErrTrialCanceled
		}
	}
	return rs.Report, nil
}

// --- Sec. 6.3 full-machine FWQ and the operational probe ----------------

// MachineFWQKey and OperationalKey are the keys of the one-trial machine_fwq
// and operational families.
const (
	MachineFWQKey  = "machine-fwq"
	OperationalKey = "operational"
)

// runMachineFWQ runs the full-machine FWQ on Fugaku Linux, 6.5 ms quanta,
// seed 42. The result does not depend on the shard count, so that is a
// constant (capped at the node count), not part of the trial spec.
func runMachineFWQ(t *sweep.T, m MachineFWQSection) (*apps.FWQMachineResult, error) {
	const shards = 4
	cfg, err := cluster.Fugaku().MachineFWQ(cluster.Linux, m.Nodes, 6500*time.Microsecond,
		seconds(m.DurationSeconds), 42, min(shards, m.Nodes), m.WorstNodes)
	if err != nil {
		return nil, err
	}
	cfg.Cancel = t.Canceled
	res, _, err := apps.FWQMachine(cfg)
	return res, err
}

// runOperational drives the event-driven machinery the closed-form figures
// never touch, so the telemetry carries live sim/cluster/fault/mckernel
// data: a fault-injected batch on the resilient OFP scheduler, a syscall
// chain through the McKernel delegator, and the Linux-side attribution. The
// payload is the rendered summary.
func runOperational(t *sweep.T, jobs int) (string, error) {
	const seed = 7
	p := cluster.OFP()

	// Rates high enough that a quarter-second job sees panics, hangs and
	// OOM kills, so detection and recovery machinery runs.
	rates := fault.Rates{
		NodeCrashPerHour: 500, LWKPanicPerHour: 2000, LWKHangPerHour: 1000,
		IHKReserveFailProb: 0.05, IKCTimeoutProb: 0.05, LWKOOMProb: 0.05,
	}
	r, err := runBatch(t, p, rates, "ops-probe", 40, 4, cluster.McKernel, jobs, seed)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "      batch: %d jobs, %d completed (%d fallback), %d failed, %d faults, %d retries\n",
		r.Jobs, r.Completed, r.Fallbacks, r.Failed, r.TotalInjected(), r.Retries)

	// One McKernel node, one thread, a mixed chain of LWK-local and
	// Linux-offloaded calls driven to completion on the engine.
	node, err := p.NewNodeAt(1, cluster.McKernel)
	if err != nil {
		return "", err
	}
	eng := sim.NewEngine()
	t.AttachEngine(eng)
	t.Sink.AttachEngine(eng)
	d := mckernel.NewDelegator(node.LWK, eng)
	proc, err := node.LWK.Spawn("ops-probe", 1)
	if err != nil {
		return "", err
	}
	th, err := node.LWK.Scheduler.Dispatch(proc.Threads[0].Core)
	if err != nil {
		return "", err
	}
	chain := []kernel.Syscall{
		kernel.SysMmap, kernel.SysBrk, kernel.SysOpen, kernel.SysRead,
		kernel.SysFutex, kernel.SysWrite, kernel.SysClose, kernel.SysGetpid,
	}
	var chainErr error
	var issue func(i int)
	issue = func(i int) {
		if i >= len(chain) {
			return
		}
		// A completed offload leaves the thread ready, not running: the LWK
		// round-robin must dispatch it again before it can issue.
		if th.State != mckernel.ThreadRunning {
			if _, err := node.LWK.Scheduler.Dispatch(th.Core); err != nil {
				chainErr = err
				return
			}
		}
		if err := d.Issue(th, chain[i], func(sim.Time) { issue(i + 1) }); err != nil {
			chainErr = err
		}
	}
	issue(0)
	//simlint:allow ctxflow — trial unit: cancellation is t's engine cancel hook, attached above, not a ctx
	if err := eng.Run(); err != nil {
		return "", err
	}
	if chainErr != nil {
		return "", chainErr
	}
	local, delegated, queueing := d.Stats()
	fmt.Fprintf(&b, "      syscalls: %d LWK-local, %d offloaded to Linux (proxy queueing %v)\n", local, delegated, queueing)

	// Replays the host noise profile through the ftrace model so per-task
	// scheduling spans land on the trace.
	if attr := node.Host.AttributeProfile(100*time.Millisecond, seed); len(attr) > 0 {
		fmt.Fprintf(&b, "      linux ftrace: top interferer on app cores: %s\n", attr[0].Task)
	}
	return b.String(), nil
}

// slug lowercases a label into a key-safe token.
func slug(s string) string {
	s = strings.ToLower(s)
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		default:
			return '-'
		}
	}, s)
}
