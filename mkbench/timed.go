package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

const (
	// setupStarts is how many fresh processes setup_s starts; it reports
	// their median.
	setupStarts = 101
	// minCalls is the fewest timed calls a run makes, however long they take.
	minCalls = 3
)

// readyLine is what a --setup-only process prints when it reaches the
// point where a timed run makes its first timed call.
const readyLine = "mkbench: ready"

// runTimed measures setup_s in fresh processes, sets the workload up, then
// repeats the timed call until the budget is spent, and reports each
// end-to-end metric as the median over the calls. Every call's output is
// checked against the first: an operation whose output differs, or that
// failed, counts as failed.
func runTimed(ctx context.Context, w workload, seed int64, budget time.Duration) (*report, error) {
	rep := newReport(endToEnd)
	setupS, err := processSetups(ctx, w, seed)
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setupS)
	inst, err := setUp(w, seed)
	if err != nil {
		return nil, err
	}

	var walls, cpus, allocs []float64
	var ref *output
	start := time.Now()
	for len(walls) < minCalls || time.Since(start) < budget {
		m, out, err := measure(ctx, inst.run)
		if err != nil {
			return nil, err
		}
		rep.attempted += inst.ops
		rep.failed += countFailures(ref, out)
		if ref == nil {
			ref, rep.digest = out, out.digest
		} else if out.digest != ref.digest {
			rep.correct = false
		}
		walls = append(walls, m.wall.Seconds())
		cpus = append(cpus, m.cpu.Seconds())
		allocs = append(allocs, float64(m.alloc)/1e6)
		fmt.Printf("  call %d: wall %.3fs cpu %.3fs alloc %.1fMB\n", len(walls), walls[len(walls)-1],
			cpus[len(cpus)-1], allocs[len(allocs)-1])
	}
	rep.set("wall_s", median(walls))
	rep.set("cpu_s", median(cpus))
	rep.set("alloc_mb", median(allocs))
	return rep, nil
}

// setUp turns the seed into a ready instance of the workload.
func setUp(w workload, seed int64) (*instance, error) {
	inst, err := w.setup(seed)
	if err != nil {
		return nil, fmt.Errorf("setting up %s: %w", w.name, err)
	}
	return inst, nil
}

// processSetups is setup_s: the time from starting the benchmark's own
// binary with --setup-only to the moment it prints readyLine, which it does
// where a timed run would make its first timed call. That covers process
// start, package initialisation and the workload's set-up. It starts
// setupStarts processes one after another, waits for each to exit, and
// returns the median.
func processSetups(ctx context.Context, w workload, seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	times := make([]float64, 0, setupStarts)
	for i := 0; i < setupStarts; i++ {
		d, err := processSetup(ctx, exe, w.name, seed)
		if err != nil {
			return 0, fmt.Errorf("set-up process for %s: %w", w.name, err)
		}
		times = append(times, d.Seconds())
	}
	return median(times), nil
}

// processSetup starts one --setup-only process and times it to readyLine.
func processSetup(ctx context.Context, exe, name string, seed int64) (time.Duration, error) {
	cmd := exec.CommandContext(ctx, exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10), "--setup-only")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	var d time.Duration
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if sc.Text() == readyLine && d == 0 {
			d = time.Since(t0)
		}
	}
	if err := cmd.Wait(); err != nil {
		return 0, err
	}
	if d == 0 {
		return 0, fmt.Errorf("the process exited without printing %q", readyLine)
	}
	return d, nil
}

// measurement is the host cost of one call.
type measurement struct {
	wall, cpu time.Duration
	alloc     uint64
	gcCycles  uint32
	gcPause   time.Duration
}

// measure collects garbage left by earlier calls, then times fn.
func measure(ctx context.Context, fn func(context.Context) (*output, error)) (measurement, *output, error) {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	out, err := fn(ctx)
	wall := time.Since(t0)
	cpu1 := cpuTime()
	runtime.ReadMemStats(&ms1)
	return measurement{
		wall:     wall,
		cpu:      cpu1 - cpu0,
		alloc:    ms1.TotalAlloc - ms0.TotalAlloc,
		gcCycles: ms1.NumGC - ms0.NumGC,
		gcPause:  time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs),
	}, out, err
}

// cpuTime is the process's user plus system time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// countFailures counts the operations of out that failed or whose output
// differs from the reference call's.
func countFailures(ref, out *output) int {
	if ref != nil && len(ref.opDigests) != len(out.opDigests) {
		return len(out.opDigests)
	}
	n := 0
	for i, d := range out.opDigests {
		if d == "" || (ref != nil && d != ref.opDigests[i]) {
			n++
		}
	}
	return n
}
