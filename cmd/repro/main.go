// Command repro regenerates the paper's entire evaluation in one run —
// Table 2, Figure 3 series, Figure 4 CDFs, and the Figure 5/6/7 application
// sweeps — writing data files under -outdir and printing a paper-vs-measured
// summary at the end. The data files use the campaigns renderers, so a
// full-scale run writes table2.txt, figure3_baseline.txt,
// figure3_daemons.txt, figure4.txt and figure5/6/7.txt byte-identical to
// results/.
//
// Usage:
//
//	repro              # full-scale run (several minutes)
//	repro -quick       # reduced node counts and durations (~1 minute)
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"mkos/internal/apps"
	"mkos/internal/bsp"
	"mkos/internal/cluster"
	"mkos/internal/core"
	"mkos/internal/fault"
	"mkos/internal/kernel"
	"mkos/internal/mckernel"
	"mkos/internal/sim"
	"mkos/internal/sweep"
	"mkos/internal/sweep/campaigns"
	"mkos/internal/telemetry"
	"mkos/internal/telemetry/ops"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("repro: ")
	quick := flag.Bool("quick", false, "reduced scales for a fast smoke run")
	outdir := flag.String("outdir", "repro-out", "directory for generated data files")
	workers := flag.Int("j", 0, "parallel trial workers (0 = all cores)")
	cacheDir := flag.String("cache-dir", "", "reuse cached trial results from this directory")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file (Perfetto / chrome://tracing)")
	metricsPath := flag.String("metrics", "", "write the deterministic metrics dump to this file")
	profilePath := flag.String("profile", "", "write the engine profiler report (host wall times, non-deterministic)")
	opsTrace := flag.String("ops-trace", "", "write the wall-clock ops flight recorder (Chrome trace JSON) to this file")
	shards := flag.Int("shards", 4, "shard count for the full-machine FWQ stage (result is shard-count invariant)")
	flag.Parse()

	if *tracePath != "" {
		telemetry.EnableTrace()
	}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		log.Fatal(err)
	}
	start := time.Now()

	// First SIGINT/SIGTERM cancels the in-flight stage (its finished trials
	// are already journaled, so a re-run resumes); a second force-exits.
	ctx, stopSignals := sweep.SignalContext(context.Background(), os.Stderr)
	defer stopSignals()
	ctx, flushOps := ops.TraceFile(ctx, *opsTrace)

	// runCampaign shards one stage's trials over the worker pool and folds
	// the merged telemetry into the process-wide sink, so the -metrics and
	// -trace artifacts see every stage exactly as the serial path did.
	runCampaign := func(c *sweep.Campaign) *sweep.Outcome {
		o, err := sweep.RunContext(ctx, c, sweep.Options{
			Workers: *workers, CacheDir: *cacheDir,
			Trace: *tracePath != "", Progress: os.Stderr,
		})
		if errors.Is(err, sweep.ErrInterrupted) {
			log.Printf("interrupted during campaign %s: %d trials unfinished; re-run with the same -cache-dir to resume", o.Name, o.Canceled)
			if ferr := flushOps(); ferr != nil {
				log.Print(ferr)
			}
			os.Exit(130)
		}
		if err != nil {
			log.Fatal(err)
		}
		if err := o.FirstErr(); err != nil {
			log.Fatal(err)
		}
		o.MergeTelemetry(telemetry.Default())
		return o
	}

	// render writes one data file through its family's campaigns renderer,
	// so each table and figure has the one format of results/*.txt.
	render := func(name string, fill func(w io.Writer) error) {
		var b bytes.Buffer
		if err := fill(&b); err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(*outdir, name), b.Bytes(), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	// --- Table 2 ---
	t2cfg := core.DefaultTable2Config()
	if *quick {
		t2cfg.Nodes, t2cfg.Duration = 4, time.Minute
	}
	fmt.Printf("[1/6] Table 2 (%d nodes, %v FWQ)...\n", t2cfg.Nodes, t2cfg.Duration)
	t2out := runCampaign(campaigns.Table2(t2cfg, t2cfg.Seed))
	render("table2.txt", func(w io.Writer) error { return campaigns.WriteTable2(w, t2out, t2cfg) })

	// --- Figure 3 ---
	f3 := &campaigns.Spec{Name: "figure3", Figure3: &campaigns.Figure3Section{}}
	if *quick {
		f3.Figure3.DurationSeconds = 60
	}
	fmt.Printf("[2/6] Figure 3 noise series...\n")
	f3campaign, err := f3.Campaign()
	if err != nil {
		log.Fatal(err)
	}
	f3out := runCampaign(f3campaign)
	render("figure3_baseline.txt", func(w io.Writer) error { return campaigns.WriteFigure3(w, f3out, "none") })
	render("figure3_daemons.txt", func(w io.Writer) error { return campaigns.WriteFigure3(w, f3out, "daemons") })

	// --- Figure 4 ---
	f4cfg := core.DefaultFigure4Config()
	if *quick {
		f4cfg.OFPNodes, f4cfg.FugakuFullNodes, f4cfg.Fugaku24Racks = 32, 96, 12
		f4cfg.Duration = 30 * time.Second
	}
	fmt.Printf("[3/6] Figure 4 CDFs (%d/%d/%d nodes)...\n",
		f4cfg.OFPNodes, f4cfg.FugakuFullNodes, f4cfg.Fugaku24Racks)
	f4out := runCampaign(campaigns.Figure4(f4cfg, 1, f4cfg.Seed))
	render("figure4.txt", func(w io.Writer) error { return campaigns.WriteFigure4(w, f4out, f4cfg, 1) })

	// --- Figures 5, 6, 7 ---
	seeds := []int64{1, 2, 3}
	if *quick {
		seeds = []int64{1}
	}
	fmt.Printf("[4/6] application figures...\n")
	figs := [][]core.FigureSpec{core.Figure5Specs(), core.Figure6Specs(), core.Figure7Specs()}
	var specs []core.FigureSpec
	for _, fig := range figs {
		if *quick {
			for i := range fig {
				fig[i].Nodes = fig[i].Nodes[len(fig[i].Nodes)-1:] // top of sweep only
			}
		}
		specs = append(specs, fig...)
	}
	figCampaign, err := campaigns.FigurePoints("repro-figs", specs, seeds, 0, 1)
	if err != nil {
		log.Fatal(err)
	}
	figOut := runCampaign(figCampaign)
	for i, fig := range figs {
		render(fmt.Sprintf("figure%d.txt", 5+i), func(w io.Writer) error {
			campaigns.WriteFigures(w, figOut, fig)
			return nil
		})
	}
	// top holds each panel's largest node count that the app can run.
	type key struct{ fig, app string }
	top := map[key]core.Comparison{}
	for _, spec := range specs {
		app := mustApp(spec.App, spec.Platform)
		for _, n := range spec.Nodes {
			if n > app.MaxNodes {
				continue
			}
			var c core.Comparison
			if err := figOut.Payload(campaigns.FigurePointKey(spec.Figure, string(spec.Platform), spec.App, n), &c); err != nil {
				log.Fatal(err)
			}
			top[key{spec.Figure, spec.App + "/" + string(spec.Platform)}] = c
		}
	}

	// --- Operational stage: engine-driven fault recovery + syscall offload ---
	// The figure stages above are closed-form; this stage drives the
	// discrete-event machinery (resilient batch system, syscall delegation)
	// so the telemetry artifacts carry live sim/cluster/fault/mckernel data.
	fmt.Printf("[5/6] operational stage (fault recovery + syscall offload)...\n")
	runOpsStage(ctx, *quick)

	// --- Full-machine sharded FWQ (Sec. 6.3 in-situ selection) ---
	runMachineStage(ctx, *quick, *shards, *outdir, flushOps)

	// --- Telemetry artifacts ---
	for _, w := range []struct {
		path string
		fn   func(string) error
		kind string
	}{
		{*metricsPath, telemetry.WriteMetricsFile, "metrics"},
		{*tracePath, telemetry.WriteTraceFile, "trace"},
		{*profilePath, telemetry.WriteProfileFile, "profile"},
	} {
		if w.path == "" {
			continue
		}
		if err := w.fn(w.path); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s to %s\n", w.kind, w.path)
	}

	// --- Summary ---
	fmt.Printf("\n=== paper vs measured (top-of-sweep relative performance) ===\n")
	paper := map[key]string{
		{"5", "AMG2013/oakforest-pacs"}: "~1.18",
		{"5", "Milc/oakforest-pacs"}:    "~1.22",
		{"5", "Lulesh/oakforest-pacs"}:  "~2X",
		{"6", "LQCD/oakforest-pacs"}:    "~1.25",
		{"6", "GeoFEM/oakforest-pacs"}:  "~1.06",
		{"6", "GAMERA/oakforest-pacs"}:  ">1.25",
		{"7", "LQCD/fugaku"}:            "~1.00",
		{"7", "GeoFEM/fugaku"}:          "~1.03",
		{"7", "GAMERA/fugaku"}:          "~1.29",
	}
	for _, spec := range specs {
		k := key{spec.Figure, spec.App + "/" + string(spec.Platform)}
		c, ok := top[k]
		if !ok {
			continue
		}
		fmt.Printf("fig %s  %-8s %-15s paper %-6s measured %.3f (at %d nodes)\n",
			spec.Figure, spec.App, spec.Platform, paper[k], c.Relative, c.Nodes)
	}
	if err := flushOps(); err != nil {
		log.Print(err)
	}
	fmt.Printf("\ndone in %v; data in %s/\n", time.Since(start).Round(time.Second), *outdir)
}

// runOpsStage exercises the event-driven subsystems the figure stages never
// touch: a small fault-injected batch on the resilient scheduler (cluster,
// fault and sim engine telemetry) and a syscall chain through the McKernel
// delegator (LWK-local vs offloaded calls, IKC traffic, proxy queueing).
// ctx (the process signal context) cancels the engine runs cooperatively.
func runOpsStage(ctx context.Context, quick bool) {
	const seed = 7
	p := cluster.OFP()

	// Fault-injected batch: rates high enough that a quarter-second job sees
	// panics, hangs and OOM kills, so detection and recovery machinery runs.
	rates := fault.Rates{
		NodeCrashPerHour: 500, LWKPanicPerHour: 2000, LWKHangPerHour: 1000,
		IHKReserveFailProb: 0.05, IKCTimeoutProb: 0.05, LWKOOMProb: 0.05,
	}
	rs, err := cluster.NewResilientScheduler(p, fault.NewInjector(rates, seed), cluster.DefaultRecoveryPolicy())
	if err != nil {
		log.Fatal(err)
	}
	jobs := 6
	if quick {
		jobs = 3
	}
	w := bsp.Workload{
		Name: "ops-probe", Scaling: bsp.StrongScaling, RefNodes: 4,
		Steps: 40, StepCompute: 5 * time.Millisecond,
		WorkingSetPerRank: 64 << 20, MemAccessPeriod: 100 * time.Nanosecond,
	}
	g := bsp.Geometry{RanksPerNode: 4, ThreadsPerRank: 16}
	for j := 0; j < jobs; j++ {
		// Terminal failures are part of the exercise, not an error.
		_, _ = rs.Submit(w, g, 4, cluster.McKernel, seed*1000+int64(j))
	}
	r := rs.Report
	fmt.Printf("      batch: %d jobs, %d completed (%d fallback), %d failed, %d faults, %d retries\n",
		r.Jobs, r.Completed, r.Fallbacks, r.Failed, r.TotalInjected(), r.Retries)

	// Syscall delegation: one McKernel node, one thread, a mixed chain of
	// LWK-local and Linux-offloaded calls driven to completion on the engine.
	node, err := p.NewNodeAt(1, cluster.McKernel)
	if err != nil {
		log.Fatal(err)
	}
	eng := sim.NewEngine()
	eng.SetCancelHook(func() bool { return ctx.Err() != nil }, 0)
	telemetry.AttachEngine(eng)
	d := mckernel.NewDelegator(node.LWK, eng)
	proc, err := node.LWK.Spawn("ops-probe", 1)
	if err != nil {
		log.Fatal(err)
	}
	th, err := node.LWK.Scheduler.Dispatch(proc.Threads[0].Core)
	if err != nil {
		log.Fatal(err)
	}
	chain := []kernel.Syscall{
		kernel.SysMmap, kernel.SysBrk, kernel.SysOpen, kernel.SysRead,
		kernel.SysFutex, kernel.SysWrite, kernel.SysClose, kernel.SysGetpid,
	}
	var issue func(i int)
	issue = func(i int) {
		if i >= len(chain) {
			return
		}
		// A completed offload leaves the thread ready, not running: the LWK
		// round-robin must dispatch it again before it can issue.
		if th.State != mckernel.ThreadRunning {
			if _, err := node.LWK.Scheduler.Dispatch(th.Core); err != nil {
				log.Fatal(err)
			}
		}
		if err := d.Issue(th, chain[i], func(sim.Time) { issue(i + 1) }); err != nil {
			log.Fatal(err)
		}
	}
	issue(0)
	eng.Run()
	local, delegated, queueing := d.Stats()
	fmt.Printf("      syscalls: %d LWK-local, %d offloaded to Linux (proxy queueing %v)\n",
		local, delegated, queueing)

	// Linux-side attribution: replays the host noise profile through the
	// ftrace model so per-task scheduling spans land on the shared timeline.
	attr := node.Host.AttributeProfile(100*time.Millisecond, seed)
	if len(attr) > 0 {
		fmt.Printf("      linux ftrace: top interferer on app cores: %s\n", attr[0].Task)
	}
}

func mustApp(name string, p apps.PlatformName) apps.App {
	app, err := apps.ByName(name, p)
	if err != nil {
		log.Fatal(err)
	}
	return app
}

func writeFile(dir, name string, fill func(*os.File)) {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	fill(f)
}
