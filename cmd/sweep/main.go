// Command sweep runs a declarative simulation campaign: a JSON spec
// enumerates trials from the paper's experiment families (application
// figures, Table 2 countermeasures, Figure 3 noise series, interference
// attribution, Figure 4 noise CDFs, fault-injection sweeps), and the
// orchestrator shards them over a worker pool, reusing cached results for
// trials whose inputs are unchanged. specs/ holds one spec per paper
// artifact; a complete run's report.txt is that artifact's results/*.txt.
//
// The deterministic artifacts — results.json, metrics.txt and report.txt —
// are byte-identical at any -j and for any mix of cached and executed
// trials; ops.txt carries the wall-clock side (pool utilization, per-trial
// runtimes) and is expected to differ run to run.
//
// Usage:
//
//	sweep -spec specs/ci-sweep.json [-j 8] [-cache-dir .sweepcache] [-outdir sweep-out]
//	sweep -spec specs/table2.json -outdir out && cmp out/report.txt results/table2.txt
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"mkos/internal/sweep"
	"mkos/internal/sweep/campaigns"
	"mkos/internal/telemetry"
	"mkos/internal/telemetry/ops"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	specPath := flag.String("spec", "", "declarative campaign spec (JSON)")
	workers := flag.Int("j", 0, "parallel trial workers (0 = all cores)")
	cacheDir := flag.String("cache-dir", "", "on-disk result cache; re-runs execute only changed trials")
	outdir := flag.String("outdir", "sweep-out", "directory for results.json, metrics.txt, ops.txt and report.txt")
	trace := flag.Bool("trace", false, "also write trace.json (merged per-trial sim-time trace)")
	trialTimeout := flag.Duration("trial-timeout", 0, "fail any single trial exceeding this wall time (0 = no limit)")
	retryFailed := flag.Bool("retry-failed", false, "re-run trials the campaign journal recorded as failed")
	opsTrace := flag.String("ops-trace", "", "write the wall-clock ops flight recorder (Chrome trace JSON) to this file")
	flag.Parse()
	if *specPath == "" {
		log.Fatal("provide -spec FILE (see specs/ci-sweep.json)")
	}

	spec, err := campaigns.LoadSpec(*specPath)
	if err != nil {
		log.Fatal(err)
	}
	c, err := spec.Campaign()
	if err != nil {
		log.Fatal(err)
	}
	// First SIGINT/SIGTERM cancels the campaign and flushes partial
	// artifacts; a second force-exits.
	ctx, stop := sweep.SignalContext(context.Background(), os.Stderr)
	ctx, flushOps := ops.TraceFile(ctx, *opsTrace)
	o, err := sweep.RunContext(ctx, c, sweep.Options{
		Workers: *workers, CacheDir: *cacheDir,
		Trace: *trace, Progress: os.Stderr,
		TrialTimeout: *trialTimeout, RetryFailed: *retryFailed,
	})
	stop()
	// The ops trace is wall-clock observability, flushed even for runs that
	// end interrupted or failed — those are the ones worth inspecting.
	if ferr := flushOps(); ferr != nil {
		log.Print(ferr)
	}
	interrupted := errors.Is(err, sweep.ErrInterrupted)
	if err != nil && !interrupted {
		log.Fatal(err)
	}

	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		log.Fatal(err)
	}
	writeResultsFile(filepath.Join(*outdir, "results.json"), o)
	writeArtifact(*outdir, "metrics.txt", dumpRegistry(o.Registry))
	writeArtifact(*outdir, "ops.txt", dumpRegistry(o.Ops))
	if o.Recorder != nil {
		var buf bytes.Buffer
		if err := o.Recorder.WriteChromeTrace(&buf); err != nil {
			log.Fatal(err)
		}
		writeArtifact(*outdir, "trace.json", buf.Bytes())
	}
	// The report renders complete runs only. A failed trial leaves its
	// family unrenderable, and the run exits 1 below; a render error with
	// every trial clean is a bug.
	os.Remove(filepath.Join(*outdir, "report.txt"))
	if !o.Partial {
		report, err := spec.Report(o)
		switch {
		case err == nil:
			writeArtifact(*outdir, "report.txt", report)
		case o.FirstErr() == nil:
			log.Fatal(err)
		default:
			log.Printf("no report.txt: %v", err)
		}
	}

	// The summary line is stable output: CI greps it to assert a warm-cache
	// re-run executed zero trials.
	fmt.Printf("campaign %s: %d trials: %d executed, %d cached, %d failed\n",
		o.Name, len(o.Results), o.Executed, o.Cached, o.Failed)
	fmt.Fprintf(os.Stderr, "sweep: artifacts in %s (elapsed %v)\n", *outdir, o.Elapsed.Round(o.Elapsed/100+time.Nanosecond))
	if interrupted {
		log.Printf("interrupted: %d trials unfinished; re-run with the same -cache-dir to resume", o.Canceled)
		os.Exit(130)
	}
	if err := o.FirstErr(); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

// writeResultsFile writes the deterministic results artifact to path.
func writeResultsFile(path string, o *sweep.Outcome) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	w := bufio.NewWriter(f)
	err = writeResults(w, o)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		log.Fatal(err)
	}
}

// writeResults renders the deterministic results artifact. A complete run
// keeps the plain top-level array (the historic format, preserved so
// byte-identity checks against older artifacts keep working); an interrupted
// run wraps the partial array in an envelope whose "partial": true marker is
// impossible to mistake for a finished campaign. The bytes are those of
// json.MarshalIndent over the whole value, but trials are encoded one at a
// time: a full-scale Table 2 row alone carries ~40M noise lengths.
func writeResults(w io.Writer, o *sweep.Outcome) error {
	if !o.Partial {
		if err := writeResultArray(w, o.Results, ""); err != nil {
			return err
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	fmt.Fprintf(w, "{\n  \"partial\": true,\n  \"unfinished\": %d,\n  \"results\": ", o.Canceled)
	if err := writeResultArray(w, o.Results, "  "); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n}\n")
	return err
}

// writeResultArray writes rs exactly as json.MarshalIndent(rs, prefix, "  ")
// would, one element at a time.
func writeResultArray(w io.Writer, rs []sweep.TrialResult, prefix string) error {
	if len(rs) == 0 {
		blob, err := json.MarshalIndent(rs, prefix, "  ")
		if err != nil {
			return err
		}
		_, err = w.Write(blob)
		return err
	}
	io.WriteString(w, "[\n")
	for i, r := range rs {
		blob, err := json.MarshalIndent(r, prefix+"  ", "  ")
		if err != nil {
			return err
		}
		io.WriteString(w, prefix+"  ")
		w.Write(blob)
		if i < len(rs)-1 {
			io.WriteString(w, ",")
		}
		io.WriteString(w, "\n")
	}
	_, err := io.WriteString(w, prefix+"]")
	return err
}

func dumpRegistry(r *telemetry.Registry) []byte {
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		log.Fatal(err)
	}
	return buf.Bytes()
}

func writeArtifact(dir, name string, blob []byte) {
	if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
		log.Fatal(err)
	}
}
