package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"mkos/internal/apps"
	"mkos/internal/bsp"
	"mkos/internal/cluster"
	"mkos/internal/core"
	"mkos/internal/cpu"
	"mkos/internal/fault"
	"mkos/internal/ihk"
	"mkos/internal/linux"
	"mkos/internal/mckernel"
	"mkos/internal/noise"
	"mkos/internal/sim"
	"mkos/internal/stats"
	"mkos/internal/sweep"
	"mkos/internal/sweep/campaigns"
	"mkos/internal/telemetry"
	"mkos/internal/telemetry/ops"
)

// This file is the traced replay: each library trial body (campaigns →
// core → cluster → bsp/apps/noise) rewritten as the same sequence of calls
// into the layers' public functions, each call wrapped in an ops span. The
// program itself stays uninstrumented; the replay's output must hash to the
// untraced call's digest, which is what makes its spans trustworthy.

// recorder collects what the replay observes beyond its spans: layer
// counters read off the objects the calls return, and the inputs the
// replay-only probes re-run outside the traced interval. Trials replay
// concurrently, so every method locks.
type recorder struct {
	mu sync.Mutex

	buddyAllocs, buddySplits uint64
	timelines                []timelineJob
	bspRuns                  []bspJob

	eventsFired uint64
	queueHigh   int
	injected    int

	shardWindows     int
	shardCross       int64
	shardBarrierWait time.Duration
}

// timelineJob is one batch of noise timelines a trial built runs times:
// nodes timelines at horizon from the per-node streams of sim.NewRand(seed).
// A batch whose horizon is unknown (0) is counted but not rebuilt.
type timelineJob struct {
	profile func() (*noise.Profile, error)
	horizon time.Duration
	seed    int64
	nodes   int
	runs    int
}

func (r *recorder) addTimelines(j timelineJob) {
	r.mu.Lock()
	r.timelines = append(r.timelines, j)
	r.mu.Unlock()
}

// bspJob is one bsp.Run made where the replay cannot span it, inside the
// recovery scheduler's event loop: the inputs of a job's completing attempt
// and the runtime that attempt produced.
type bspJob struct {
	platform *cluster.Platform
	kind     cluster.OSKind
	workload bsp.Workload
	geometry bsp.Geometry
	nodes    int
	seed     int64
	runtime  time.Duration
}

func (r *recorder) addBSPRun(j bspJob) {
	r.mu.Lock()
	r.bspRuns = append(r.bspRuns, j)
	r.mu.Unlock()
}

func (r *recorder) addBuddy(host *linux.Kernel) {
	var allocs, splits uint64
	for _, n := range host.Mem.Nodes {
		a, _, s, _ := n.Buddy.Stats()
		allocs += a
		splits += s
	}
	r.mu.Lock()
	r.buddyAllocs += allocs
	r.buddySplits += splits
	r.mu.Unlock()
}

func (r *recorder) addEngine(fired uint64, high, injected int) {
	r.mu.Lock()
	r.eventsFired += fired
	if high > r.queueHigh {
		r.queueHigh = high
	}
	r.injected += injected
	r.mu.Unlock()
}

// spanned runs fn inside an ops span named name.
func spanned[T any](ctx context.Context, name string, fn func(context.Context) (T, error), args ...ops.Arg) (T, error) {
	sctx, s := ops.Start(ctx, name, args...)
	defer s.End()
	return fn(sctx)
}

func arg(k string, v int) ops.Arg { return ops.Arg{Key: k, Val: strconv.Itoa(v)} }

// expandCampaign returns c with every trial body replaced by its expanded,
// span-recording form. Keys and specs are unchanged, so the sweep derives
// the same per-trial seeds.
func expandCampaign(ctx context.Context, c *sweep.Campaign, rec *recorder) (*sweep.Campaign, error) {
	out := &sweep.Campaign{Name: c.Name, Seed: c.Seed}
	for _, t := range c.Trials {
		var body func(context.Context, *sweep.T) (any, error)
		switch s := t.Spec.(type) {
		case campaigns.FigurePointSpec:
			body = func(ctx context.Context, t *sweep.T) (any, error) { return figurePoint(ctx, rec, s, t) }
		case campaigns.Table2Spec:
			body = func(ctx context.Context, _ *sweep.T) (any, error) { return table2Row(ctx, rec, s) }
		case core.Figure4CurveSpec:
			body = func(ctx context.Context, _ *sweep.T) (any, error) { return figure4Curve(ctx, rec, s) }
		case campaigns.FaultPointSpec:
			body = func(ctx context.Context, t *sweep.T) (any, error) { return faultPoint(ctx, rec, s, t) }
		default:
			return nil, fmt.Errorf("no replay for trial %s (spec %T)", t.Key, t.Spec)
		}
		key := t.Key
		out.Trials = append(out.Trials, sweep.Trial{
			Key: key, Spec: t.Spec,
			Run: func(t *sweep.T) (any, error) {
				// Trials run concurrently: each opens its own lane.
				tctx, s := ops.StartTrack(ctx, "replay.trial", ops.Arg{Key: "key", Val: key})
				defer s.End()
				return body(tctx, t)
			},
		})
	}
	return out, nil
}

// buildNode is cluster.Platform.NewNodeAt expanded into its public steps:
// boot Linux; for McKernel load IHK, reserve the application cores and a
// memory slice per domain, and boot the LWK on the partition.
func buildNode(ctx context.Context, rec *recorder, p *cluster.Platform, idx int, kind cluster.OSKind) (*cluster.Node, error) {
	ctx, s := ops.Start(ctx, "cluster.node_build", ops.Arg{Key: "os", Val: kind.String()})
	defer s.End()
	topo := p.NewTopology
	if p.TopologyAt != nil {
		topo = func() *cpu.Topology { return p.TopologyAt(idx) }
	}
	host, err := spanned(ctx, "linux.new_kernel", func(context.Context) (*linux.Kernel, error) {
		return linux.NewKernel(topo(), p.Tuning, p.MemBytes)
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: booting Linux on %s: %w", p.Name, err)
	}
	node := &cluster.Node{Platform: p, Kind: kind, Host: host}
	if kind == cluster.McKernel {
		mgr := ihk.NewManager(host)
		if _, err := spanned(ctx, "ihk.reserve_cpus", func(context.Context) (any, error) {
			return nil, mgr.ReserveCPUs(host.Topo.AppCores())
		}); err != nil {
			return nil, fmt.Errorf("cluster: reserving cores: %w", err)
		}
		if _, err := spanned(ctx, "ihk.reserve_memory", func(context.Context) (any, error) {
			return nil, mgr.ReserveMemory(p.LWKReserveBytesPerDomain)
		}); err != nil {
			return nil, fmt.Errorf("cluster: reserving memory: %w", err)
		}
		part, err := spanned(ctx, "ihk.boot", func(context.Context) (*ihk.Partition, error) { return mgr.Boot() })
		if err != nil {
			return nil, fmt.Errorf("cluster: booting partition: %w", err)
		}
		lwk, err := spanned(ctx, "mckernel.boot", func(context.Context) (*mckernel.Instance, error) {
			return mckernel.Boot(host, part, mckernel.DefaultConfig())
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: booting McKernel: %w", err)
		}
		node.IHK, node.LWK = mgr, lwk
	}
	rec.addBuddy(host)
	return node, nil
}

// machine is cluster.Platform.Machine with the node build expanded.
func machine(ctx context.Context, rec *recorder, p *cluster.Platform, kind cluster.OSKind, g bsp.Geometry) (bsp.Machine, error) {
	if err := p.Validate(g); err != nil {
		return bsp.Machine{}, err
	}
	node, err := buildNode(ctx, rec, p, 1, kind)
	if err != nil {
		return bsp.Machine{}, err
	}
	return bsp.Machine{
		OS: node.OS(), Fabric: p.Fabric, Cores: node.AppCores(),
		RanksPerNode: g.RanksPerNode, ThreadsPerRank: g.ThreadsPerRank,
	}, nil
}

// bspRun is one bsp.Run in a span. The run's noise horizon is its nominal
// (noise-free) runtime, which the breakdown carries.
func bspRun(ctx context.Context, rec *recorder, w bsp.Workload, m bsp.Machine, nodes int, seed int64) (bsp.Result, error) {
	res, err := spanned(ctx, "bsp.run", func(context.Context) (bsp.Result, error) {
		return bsp.Run(w, m, nodes, seed)
	}, arg("nodes", nodes), ops.Arg{Key: "os", Val: m.OS.Name()})
	if err != nil {
		return res, err
	}
	os := m.OS
	rec.addTimelines(timelineJob{
		profile: func() (*noise.Profile, error) { return os.NoiseProfile(), nil },
		horizon: res.Breakdown.Total() - res.Breakdown.Noise, seed: seed, nodes: nodes, runs: 1,
	})
	return res, nil
}

// figurePoint is campaigns' figure-point trial: core.Compare expanded.
func figurePoint(ctx context.Context, rec *recorder, ps campaigns.FigurePointSpec, t *sweep.T) (core.Comparison, error) {
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
	p := core.PlatformFor(apps.PlatformName(ps.Platform))
	nodes := p.ClampNodes(ps.Nodes)
	linM, err := machine(ctx, rec, p, cluster.Linux, app.Geometry)
	if err != nil {
		return core.Comparison{}, fmt.Errorf("core: building Linux machine: %w", err)
	}
	mckM, err := machine(ctx, rec, p, cluster.McKernel, app.Geometry)
	if err != nil {
		return core.Comparison{}, fmt.Errorf("core: building McKernel machine: %w", err)
	}
	out := core.Comparison{App: app.Workload.Name, Platform: p.Name, Nodes: nodes}
	var rels []float64
	var linSum, mckSum time.Duration
	for _, seed := range seeds {
		ra, err := bspRun(ctx, rec, app.Workload, linM, nodes, seed)
		if err != nil {
			return core.Comparison{}, err
		}
		rb, err := bspRun(ctx, rec, app.Workload, mckM, nodes, seed)
		if err != nil {
			return core.Comparison{}, err
		}
		rels = append(rels, float64(ra.Runtime)/float64(rb.Runtime))
		linSum += ra.Runtime
		mckSum += rb.Runtime
		out.LinuxBreakdown, out.McKBreakdown = ra.Breakdown, rb.Breakdown
	}
	s, err := stats.Summarize(rels)
	if err != nil {
		return core.Comparison{}, err
	}
	out.Relative, out.RelErr = s.Mean, s.Stddev
	out.LinuxRuntime = linSum / time.Duration(len(seeds))
	out.McKRuntime = mckSum / time.Duration(len(seeds))
	return out, nil
}

// disableCountermeasure turns off the Table 2 countermeasure labeled
// disabled, exactly as core's row table does.
func disableCountermeasure(p *cluster.Platform, disabled string) error {
	c := &p.Tuning.Counter
	switch disabled {
	case "None":
	case "Daemon process":
		c.BindDaemons = false
	case "Unbound kworker tasks":
		c.BindKworkers = false
	case "blk-mq worker tasks":
		c.BindBlkMQ = false
	case "PMU counter reads":
		c.StopPMUReads = false
	case "CPU-global flush instruction":
		c.SuppressGlobalTLBI = false
	default:
		return fmt.Errorf("no replay for Table 2 countermeasure %q", disabled)
	}
	return nil
}

// table2Row is core.Table2Variant expanded.
func table2Row(ctx context.Context, rec *recorder, ts campaigns.Table2Spec) (core.Table2Row, error) {
	p := cluster.Fugaku()
	if err := disableCountermeasure(p, ts.Disabled); err != nil {
		return core.Table2Row{}, err
	}
	node, err := buildNode(ctx, rec, p, 1, cluster.Linux)
	if err != nil {
		return core.Table2Row{}, err
	}
	cfg := apps.FWQConfig{Work: fwqWork, Duration: ts.Duration, Cores: node.AppCores()}
	analyses, err := spanned(ctx, "apps.fwq_across_nodes", func(context.Context) ([]noise.Analysis, error) {
		a, _, err := apps.FWQAcrossNodes(cfg, node.Host, ts.Nodes, ts.Seed)
		return a, err
	}, arg("nodes", ts.Nodes))
	if err != nil {
		return core.Table2Row{}, err
	}
	rec.addTimelines(timelineJob{
		profile: func() (*noise.Profile, error) { return node.Host.NoiseProfile(), nil },
		horizon: ts.Duration, seed: ts.Seed, nodes: ts.Nodes, runs: 1,
	})
	merged, err := spanned(ctx, "noise.merge", func(context.Context) (noise.Analysis, error) {
		return noise.Merge(analyses)
	})
	if err != nil {
		return core.Table2Row{}, err
	}
	return core.Table2Row{
		Disabled: ts.Disabled, MaxNoise: merged.MaxNoise, NoiseRate: merged.Rate, Lengths: merged.Lengths,
	}, nil
}

// figure4Curve is core.Figure4Curve expanded.
func figure4Curve(ctx context.Context, rec *recorder, s core.Figure4CurveSpec) (core.CDFCurve, error) {
	p := cluster.OFP()
	if s.Platform == "fugaku" {
		p = cluster.Fugaku()
	}
	kind := cluster.Linux
	if s.OS == "mckernel" {
		kind = cluster.McKernel
	}
	node, err := buildNode(ctx, rec, p, 1, kind)
	if err != nil {
		return core.CDFCurve{}, err
	}
	cfg := apps.FWQConfig{Work: fwqWork, Duration: s.Duration, Cores: node.AppCores()}
	sketches, err := spanned(ctx, "apps.fwq_sketch_across_nodes", func(context.Context) ([]*apps.FWQSketch, error) {
		return apps.FWQSketchAcrossNodes(cfg, node.OS(), s.Nodes, s.Seed)
	}, arg("nodes", s.Nodes))
	if err != nil {
		return core.CDFCurve{}, err
	}
	os := node.OS()
	rec.addTimelines(timelineJob{
		profile: func() (*noise.Profile, error) { return os.NoiseProfile(), nil },
		horizon: s.Duration, seed: s.Seed, nodes: s.Nodes, runs: 1,
	})
	analyses := make([]noise.Analysis, len(sketches))
	for i, sk := range sketches {
		analyses[i] = sk.Analysis
	}
	worst := noise.WorstBy(analyses, s.WorstNodes)
	dists := make([]*noise.IterationDist, 0, len(worst))
	for _, idx := range worst {
		dists = append(dists, sketches[idx].Dist)
	}
	cdf, _ := spanned(ctx, "noise.merge", func(context.Context) (*noise.IterationDist, error) {
		return noise.MergeDists(dists), nil
	})
	return core.CDFCurve{Label: s.Label, Nodes: s.Nodes, CDF: cdf}, nil
}

// faultPoint is campaigns' fault sweep point with each job submission in a
// span. Node builds and bsp runs happen inside the recovery scheduler's
// event loop, so they are counted from its telemetry, not spanned; the
// probes re-time each completed job's last bsp run.
func faultPoint(ctx context.Context, rec *recorder, s campaigns.FaultPointSpec, t *sweep.T) (campaigns.FaultPointResult, error) {
	var p *cluster.Platform
	switch s.Platform {
	case "fugaku":
		p = cluster.Fugaku()
	case "ofp", "oakforest-pacs":
		p = cluster.OFP()
	default:
		return campaigns.FaultPointResult{}, fmt.Errorf("campaigns: unknown platform %q", s.Platform)
	}
	kind := cluster.Linux
	if s.OS == "mckernel" {
		kind = cluster.McKernel
	}
	rs, err := cluster.NewResilientScheduler(p, fault.NewInjector(s.Rates, s.Seed), cluster.DefaultRecoveryPolicy())
	if err != nil {
		return campaigns.FaultPointResult{}, err
	}
	g := bsp.Geometry{RanksPerNode: 4, ThreadsPerRank: 12}
	if p.Name == "oakforest-pacs" {
		g = bsp.Geometry{RanksPerNode: 4, ThreadsPerRank: 16}
	}
	w := bsp.Workload{
		Name: "faultexp", Scaling: bsp.StrongScaling, RefNodes: s.Nodes,
		Steps: 50, StepCompute: 5 * time.Millisecond,
		WorkingSetPerRank: 64 << 20, MemAccessPeriod: 100 * time.Nanosecond,
	}
	t.AttachEngine(rs.Engine)
	// The trial's own registry: its bsp.runs counter tells how many of a
	// job's attempts reached bsp.Run. Reading it creates no metric.
	reg := telemetry.Default().Registry()
	for j := 0; j < s.Jobs; j++ {
		if t.Canceled() {
			return campaigns.FaultPointResult{}, sweep.ErrTrialCanceled
		}
		seed := s.Seed*1000 + int64(j)
		before := reg.CounterValue("bsp.runs")
		job, err := spanned(ctx, "cluster.submit", func(context.Context) (*cluster.Job, error) {
			return rs.Submit(w, g, s.Nodes, kind, seed)
		})
		if errors.Is(err, sim.ErrCanceled) {
			return campaigns.FaultPointResult{}, sweep.ErrTrialCanceled
		}
		runs := int(reg.CounterValue("bsp.runs") - before)
		if runs == 0 {
			continue
		}
		// Each run built s.Nodes timelines. The probes rebuild those of
		// the last attempt, the one whose horizon the job's result
		// carries; a job that failed terminally has none and is only
		// counted.
		final := job.OS
		last := seed + int64(job.Attempts-1)
		tj := timelineJob{
			profile: func() (*noise.Profile, error) {
				n, err := p.NewNode(final)
				if err != nil {
					return nil, err
				}
				return n.OS().NoiseProfile(), nil
			},
			seed: last, nodes: s.Nodes, runs: runs,
		}
		if job.Result.Runtime > 0 {
			tj.horizon = job.Result.Breakdown.Total() - job.Result.Breakdown.Noise
			rec.addBSPRun(bspJob{
				platform: p, kind: final, workload: w, geometry: g,
				nodes: s.Nodes, seed: last, runtime: job.Result.Runtime,
			})
		}
		rec.addTimelines(tj)
	}
	rec.addEngine(rs.Engine.Fired(), rs.Engine.QueueHighWater(), rs.Report.TotalInjected())
	return campaigns.FaultPointResult{Report: *rs.Report, Text: rs.Report.String()}, nil
}
