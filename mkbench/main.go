// Command mkbench is the repository's benchmark: it times the host cost of
// the campaign paths mkos users wait on — sweep.RunContext over campaign
// trials, and the sharded full-machine FWQ run — on one generated workload
// per invocation, checks that the outputs are correct, and prints every
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage:
//
//	mkbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics (wall_s, cpu_s, alloc_mb)
// as medians over as many timed calls as fit in --seconds, and setup_s, the
// median time from process start to the first timed call over several
// processes started with --setup-only. With
// --trace 1 it makes one untraced timed call, replays the same trials with
// their bodies expanded into the layers' public functions inside ops spans,
// checks the replay reproduces the untraced output, and reports the
// per-layer metrics; the spans are written as Chrome trace JSON under
// .bench_build/traces.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// defaultSeed is the seed the golden digests were recorded at.
const defaultSeed = 1

// goldenJSON maps each workload to its output digest at defaultSeed.
//
//go:embed golden.json
var goldenJSON []byte

var golden = func() map[string]string {
	var g map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("embedded golden.json: %v", err))
	}
	return g
}()

func main() {
	workload := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Int64("seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "how long the timed calls run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced replay")
	setupOnly := flag.Bool("setup-only", false, "set the workload up, print \""+readyLine+"\" and exit (how setup_s is timed)")
	flag.Parse()

	w, ok := workloads[*workload]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (want one of %s)", *workload, workloadNames()))
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fail(errors.New("--seconds must be positive and --trace 0 or 1"))
	}
	if *setupOnly {
		if _, err := setUp(w, *seed); err != nil {
			fail(err)
		}
		fmt.Println(readyLine)
		return
	}
	fmt.Printf("mkbench: workload %s, seed %d, nproc %d, GOMAXPROCS %d, %s\n",
		w.name, *seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	ctx := context.Background()
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = runTraced(ctx, w, *seed)
	} else {
		rep, err = runTimed(ctx, w, *seed, time.Duration(*seconds*float64(time.Second)))
	}
	if err != nil {
		fail(err)
	}
	if *seed == defaultSeed {
		if want := golden[w.name]; rep.digest != want {
			fmt.Fprintf(os.Stderr, "mkbench: output digest %s does not match the golden %s\n", rep.digest, want)
			rep.correct = false
		}
	}
	if err := rep.print(os.Stdout); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mkbench:", err)
	os.Exit(1)
}
