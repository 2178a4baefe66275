// Command repro regenerates the paper's entire evaluation in one run: Table
// 2, Figures 3-7, the operational probe and the Sec. 6.3 full-machine FWQ.
// It merges the trials of the nine paper specs in specs/ (specs/quick/ with
// -quick) into one campaign, runs it, and writes each spec's report under
// -outdir — at full scale table2.txt, figure3_*.txt, figure4.txt and
// figure5/6/7.txt byte-identical to results/, plus fwq_machine.json — then
// prints the operational report and a paper-vs-measured summary. Artifacts
// are written only after the whole campaign finished: an interrupted run
// (exit 130) leaves none, and a re-run with the same -cache-dir resumes with
// zero re-executed trials.
//
// Usage:
//
//	repro              # full-scale run (several minutes)
//	repro -quick       # reduced node counts and durations (~10 s on 2 cores)
//	repro -quick -cpuprofile cpu.pprof && go tool pprof -top cpu.pprof
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
	"strings"
	"time"

	"mkos/internal/apps"
	"mkos/internal/core"
	"mkos/internal/sweep"
	"mkos/internal/sweep/campaigns"
	"mkos/internal/telemetry/ops"
	"mkos/specs"
)

// paper holds the published top-of-sweep relative performance per figure
// panel, printed beside the measured value.
var paper = map[string]string{
	"5 AMG2013/oakforest-pacs": "~1.18", "5 Milc/oakforest-pacs": "~1.22", "5 Lulesh/oakforest-pacs": "~2X",
	"6 LQCD/oakforest-pacs": "~1.25", "6 GeoFEM/oakforest-pacs": "~1.06", "6 GAMERA/oakforest-pacs": ">1.25",
	"7 LQCD/fugaku": "~1.00", "7 GeoFEM/fugaku": "~1.03", "7 GAMERA/fugaku": "~1.29",
}

// artifacts names the file a paper spec's report goes to where it is not
// the spec name with underscores plus .txt; "" means stdout.
var artifacts = map[string]string{"operational": "", "machine-fwq": "fwq_machine.json"}

func main() {
	log.SetFlags(0)
	log.SetPrefix("repro: ")
	quick := flag.Bool("quick", false, "run the reduced-scale specs of specs/quick/ for a fast smoke run")
	outdir := flag.String("outdir", "repro-out", "directory for generated data files")
	workers := flag.Int("j", 0, "parallel trial workers (0 = all cores)")
	cacheDir := flag.String("cache-dir", "", "reuse cached trial results from this directory")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file (Perfetto / chrome://tracing)")
	metricsPath := flag.String("metrics", "", "write the deterministic metrics dump to this file")
	profilePath := flag.String("profile", "", "write the engine profiler report (host wall times, non-deterministic)")
	opsTrace := flag.String("ops-trace", "", "write the wall-clock ops flight recorder (Chrome trace JSON) to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a runtime/pprof CPU profile of the whole run to this file (keep it outside -outdir)")
	flag.Parse()
	start := time.Now()
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		log.Fatal(err)
	}

	// Trial keys are namespaced by family, so the specs' trials merge into
	// one campaign. Each trial keeps its spec's seed, so the merged campaign
	// computes what each spec computes alone and shares the cache entries
	// of `sweep -spec`.
	dir := ""
	if *quick {
		dir = "quick/"
	}
	loaded := make([]*campaigns.Spec, len(specs.Paper))
	parts := make([]*sweep.Campaign, len(specs.Paper))
	for i, name := range specs.Paper {
		s, err := specs.Load(dir + name)
		if err != nil {
			log.Fatal(err)
		}
		sc, err := s.Campaign()
		if err != nil {
			log.Fatal(err)
		}
		loaded[i], parts[i] = s, sc
	}
	c := sweep.Merge("repro", parts...)

	// The first SIGINT/SIGTERM cancels the campaign (its finished trials
	// are already journaled, so a re-run resumes); a second force-exits.
	ctx, stopSignals := sweep.SignalContext(context.Background(), os.Stderr)
	defer stopSignals()
	ctx, flushOps := ops.TraceFile(ctx, *opsTrace)
	stopProfile, err := ops.CPUProfile(*cpuProfile)
	if err != nil {
		log.Fatal(err)
	}
	// flushHost writes the ops trace and CPU profile, also for interrupted runs.
	flushHost := func() {
		for _, flush := range []func() error{flushOps, stopProfile} {
			if err := flush(); err != nil {
				log.Print(err)
			}
		}
	}

	o, err := sweep.RunContext(ctx, c, sweep.Options{
		Workers: *workers, CacheDir: *cacheDir,
		Trace: *tracePath != "", Progress: os.Stderr,
	})
	if errors.Is(err, sweep.ErrInterrupted) {
		log.Printf("interrupted: %d trials unfinished, no artifacts written; re-run with the same -cache-dir to resume", o.Canceled)
		flushHost()
		os.Exit(130)
	}
	if err == nil {
		err = o.FirstErr()
	}
	if err != nil {
		log.Fatal(err)
	}
	// Stable output: CI greps it to assert a warm re-run executed no trials.
	fmt.Printf("campaign %s: %d trials: %d executed, %d cached, %d failed\n",
		o.Name, len(o.Results), o.Executed, o.Cached, o.Failed)

	for i, s := range loaded {
		report, err := s.Report(o)
		if err != nil {
			log.Fatal(err)
		}
		name, ok := artifacts[s.Name]
		if !ok {
			name = strings.ReplaceAll(s.Name, "-", "_") + ".txt"
		}
		fmt.Printf("[%d/%d] %s", i+1, len(loaded), s.Name)
		if name == "" {
			fmt.Printf(":\n%s", report)
			continue
		}
		fmt.Printf(" -> %s\n", name)
		if err := os.WriteFile(filepath.Join(*outdir, name), report, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	var m apps.FWQMachineResult
	if o.Payload(campaigns.MachineFWQKey, &m) == nil && len(m.Worst) > 0 {
		fmt.Printf("  %d windows, %d digests, worst node %d (total noise %v)\n",
			m.Windows, len(m.Digests), m.Worst[0].Node, time.Duration(m.Worst[0].Digest.TotalNoiseNS))
	}

	// Every engine ran inside a trial, so the outcome holds all telemetry.
	for _, a := range []struct {
		path, kind string
		write      func(io.Writer) error
	}{
		{*metricsPath, "metrics", func(w io.Writer) error { _, err := o.Registry.WriteTo(w); return err }},
		{*tracePath, "trace", func(w io.Writer) error { return o.Recorder.WriteChromeTrace(w) }},
		{*profilePath, "profile", func(w io.Writer) error { _, err := o.Profiler.WriteTo(w); return err }},
	} {
		if a.path == "" {
			continue
		}
		var b bytes.Buffer
		err := a.write(&b)
		if err == nil {
			err = os.WriteFile(a.path, b.Bytes(), 0o644)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s to %s\n", a.kind, a.path)
	}

	// Each panel's largest node count the app could run is its top of
	// sweep; node counts above an app's maximum have no trial.
	fmt.Printf("\n=== paper vs measured (top-of-sweep relative performance) ===\n")
	for _, s := range loaded {
		panels, err := s.FigureSpecs()
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range panels {
			for i := len(p.Nodes) - 1; i >= 0; i-- {
				var cmp core.Comparison
				if o.Payload(campaigns.FigurePointKey(p.Figure, string(p.Platform), p.App, p.Nodes[i]), &cmp) != nil {
					continue
				}
				fmt.Printf("fig %s  %-8s %-15s paper %-6s measured %.3f (at %d nodes)\n",
					p.Figure, p.App, p.Platform, paper[p.Figure+" "+p.App+"/"+string(p.Platform)], cmp.Relative, cmp.Nodes)
				break
			}
		}
	}
	flushHost()
	fmt.Printf("\ndone in %v; data in %s/\n", time.Since(start).Round(time.Second), *outdir)
}
