package worker_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mkos/internal/simd/worker"
	"mkos/internal/sweep"
	"mkos/internal/sweep/campaigns"
)

// The supervisor is tested against real child processes: TestMain turns this
// test binary into a fake worker when WORKER_TEST_MODE is set, so every test
// exercises the actual spawn/pipe/SIGKILL machinery rather than a mock.
//
// Modes:
//
//	ok       real worker.Main with synthetic trial bodies (WORKER_TEST_SLOW_MS
//	         paces each trial)
//	die-mid  like ok, but trial 2 kills the process the first time it runs
//	         (a marker file at WORKER_TEST_MARKER makes later runs survive)
//	die-each like ok, but every incarnation exits after executing one fresh
//	         trial — progress on every death, so the breaker must stay closed
//	crash    exits immediately: a worker that never makes progress
//	hang     says hello, then goes silent: a wedged worker
//	balloon  says hello, allocates far past any sane RSS limit, keeps
//	         heartbeating: a runaway trial's memory
func TestMain(m *testing.M) {
	switch os.Getenv("WORKER_TEST_MODE") {
	case "":
		os.Exit(m.Run())
	case "ok":
		os.Exit(worker.Main(os.Stdin, os.Stdout, os.Stderr, testBuild))
	case "die-mid":
		os.Exit(worker.Main(os.Stdin, os.Stdout, os.Stderr, buildDieMid))
	case "die-each":
		os.Exit(worker.Main(os.Stdin, os.Stdout, os.Stderr, buildDieEach))
	case "crash":
		os.Exit(3)
	case "hang":
		json.NewEncoder(os.Stdout).Encode(worker.Event{Ev: worker.EvHello, PID: os.Getpid()})
		time.Sleep(time.Hour)
	case "balloon":
		enc := json.NewEncoder(os.Stdout)
		enc.Encode(worker.Event{Ev: worker.EvHello, PID: os.Getpid()})
		ballast := make([]byte, 256<<20)
		for i := 0; i < len(ballast); i += 4096 {
			ballast[i] = byte(i)
		}
		for {
			enc.Encode(worker.Event{Ev: worker.EvHB})
			time.Sleep(50 * time.Millisecond)
			runtime.KeepAlive(ballast)
		}
	}
	os.Exit(0)
}

// testBuild mirrors the simd test harness: spec.Runs synthetic trials whose
// results depend only on the derived trial seed, so resumed and uninterrupted
// runs are indistinguishable.
func testBuild(spec *campaigns.Spec) (*sweep.Campaign, error) {
	slow, _ := strconv.Atoi(os.Getenv("WORKER_TEST_SLOW_MS"))
	c := &sweep.Campaign{Name: spec.Name, Seed: spec.Seed}
	runs := spec.Runs
	if runs <= 0 {
		runs = 3
	}
	for i := 0; i < runs; i++ {
		i := i
		c.Trials = append(c.Trials, sweep.Trial{
			Key:  fmt.Sprintf("wk/t%03d", i),
			Spec: map[string]int{"i": i},
			Run: func(t *sweep.T) (any, error) {
				if slow > 0 {
					time.Sleep(time.Duration(slow) * time.Millisecond)
				}
				return map[string]int64{"seed": t.Seed}, nil
			},
		})
	}
	return c, nil
}

// buildDieMid kills the worker from inside trial 2's body on the first
// execution only: two trials journal, the process dies, and the next
// incarnation must resume past them.
func buildDieMid(spec *campaigns.Spec) (*sweep.Campaign, error) {
	c, err := testBuild(spec)
	if err != nil {
		return nil, err
	}
	marker := os.Getenv("WORKER_TEST_MARKER")
	inner := c.Trials[2].Run
	c.Trials[2].Run = func(t *sweep.T) (any, error) {
		if _, serr := os.Stat(marker); os.IsNotExist(serr) {
			os.WriteFile(marker, []byte("died once\n"), 0o644)
			os.Exit(7)
		}
		return inner(t)
	}
	return c, nil
}

// buildDieEach kills the worker at the start of its second fresh (non-cached)
// trial execution: every incarnation journals exactly one new trial before
// dying, so the campaign crawls to completion one restart per trial — with
// progress every time, which must keep the crash-loop breaker closed.
func buildDieEach(spec *campaigns.Spec) (*sweep.Campaign, error) {
	c, err := testBuild(spec)
	if err != nil {
		return nil, err
	}
	var fresh int32
	for ti := range c.Trials {
		inner := c.Trials[ti].Run
		c.Trials[ti].Run = func(t *sweep.T) (any, error) {
			if atomic.AddInt32(&fresh, 1) > 1 {
				os.Exit(9)
			}
			return inner(t)
		}
	}
	return c, nil
}

// env builds a fake-worker environment on top of the test's own.
func env(pairs ...string) []string { return append(os.Environ(), pairs...) }

func specJSON(name string, seed int64, runs int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"name":%q,"seed":%d,"runs":%d}`, name, seed, runs))
}

// trialLog collects OnTrial events thread-safely.
type trialLog struct {
	mu  sync.Mutex
	evs []worker.Event
}

func (l *trialLog) add(ev worker.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.evs = append(l.evs, ev)
}

func (l *trialLog) executedKeys() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, ev := range l.evs {
		if !ev.Cached {
			out = append(out, ev.Key)
		}
	}
	return out
}

func TestBackoff(t *testing.T) {
	base, max := 10*time.Millisecond, 100*time.Millisecond
	for i, want := range []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 100 * time.Millisecond, 100 * time.Millisecond,
	} {
		if got := worker.Backoff(i, base, max); got != want {
			t.Fatalf("Backoff(%d) = %v, want %v", i, got, want)
		}
	}
	// Defaults and shift-overflow guard.
	if got := worker.Backoff(0, 0, 0); got != 50*time.Millisecond {
		t.Fatalf("default base: %v", got)
	}
	if got := worker.Backoff(500, 0, 0); got != 2*time.Second {
		t.Fatalf("overflow attempt must cap at max: %v", got)
	}
}

func TestSupervisorCleanRun(t *testing.T) {
	dir := t.TempDir()
	art := filepath.Join(dir, "art")
	var log trialLog
	sup := &worker.Supervisor{
		Cmd:     []string{os.Args[0]},
		Env:     env("WORKER_TEST_MODE=ok"),
		OnTrial: log.add,
	}
	res, err := sup.Run(context.Background(), worker.Request{
		Spec: specJSON("clean", 3, 4), CacheDir: filepath.Join(dir, "cache"),
		ArtifactDir: art, Workers: 1, Version: "wkr-v1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != worker.StateDone || res.Restarts != 0 {
		t.Fatalf("clean run: %+v, want done with 0 restarts", res)
	}
	if res.Summary.Executed != 4 || res.Summary.Cached != 0 {
		t.Fatalf("summary %+v, want 4 executed / 0 cached", res.Summary)
	}
	if got := log.executedKeys(); len(got) != 4 {
		t.Fatalf("OnTrial saw %d executed trials, want 4: %v", len(got), got)
	}
	// The worker wrote verified artifacts before reporting done.
	for _, name := range []string{"results.json", "metrics.txt"} {
		if _, serr := os.Stat(filepath.Join(art, name)); serr != nil {
			t.Fatalf("artifact %s missing: %v", name, serr)
		}
		if _, serr := os.Stat(filepath.Join(art, name+".sha256")); serr != nil {
			t.Fatalf("artifact sidecar %s.sha256 missing: %v", name, serr)
		}
	}
}

// TestSupervisorResumesDeadWorker is the tentpole contract in one process
// tree: a worker that dies mid-campaign is restarted, the journal restores
// its finished trials, no trial executes twice, and the final artifacts are
// byte-identical to an undisturbed run of the same campaign.
func TestSupervisorResumesDeadWorker(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	marker := filepath.Join(dir, "died")
	var log trialLog
	var deaths []string
	sup := &worker.Supervisor{
		Cmd:         []string{os.Args[0]},
		Env:         env("WORKER_TEST_MODE=die-mid", "WORKER_TEST_MARKER="+marker),
		BackoffBase: time.Millisecond,
		JournalPath: sweep.JournalPath(cache, "wkr-v1", "resume", 5),
		OnTrial:     log.add,
		OnExit:      func(attempt int, cause string) { deaths = append(deaths, cause) },
	}
	res, err := sup.Run(context.Background(), worker.Request{
		Spec: specJSON("resume", 5, 5), CacheDir: cache,
		ArtifactDir: filepath.Join(dir, "art"), Workers: 1, Version: "wkr-v1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != worker.StateDone {
		t.Fatalf("resumed campaign state %q (err %q), want done", res.State, res.Err)
	}
	if res.Restarts != 1 || res.LastExit != "exit status 7" {
		t.Fatalf("restarts=%d last_exit=%q, want 1 / \"exit status 7\"", res.Restarts, res.LastExit)
	}
	if len(deaths) != 1 || deaths[0] != "exit status 7" {
		t.Fatalf("OnExit saw %v", deaths)
	}
	// The final incarnation found trials 0 and 1 in the journal and executed
	// only the remaining three.
	if res.Summary.Executed != 3 || res.Summary.Cached != 2 {
		t.Fatalf("summary %+v, want 3 executed / 2 cached", res.Summary)
	}
	// Zero re-executed trials: across both incarnations every key executed at
	// most once.
	seen := map[string]int{}
	for _, k := range log.executedKeys() {
		seen[k]++
	}
	for k, n := range seen {
		if n > 1 {
			t.Fatalf("trial %s executed %d times across incarnations", k, n)
		}
	}
	if len(seen) != 5 {
		t.Fatalf("executed %d distinct trials, want 5", len(seen))
	}
	// The journal holds all five trials.
	if n, jerr := sweep.ProbeJournal(cache, "wkr-v1", "resume", 5); jerr != nil || n != 5 {
		t.Fatalf("journal probe = (%d, %v), want (5, nil)", n, jerr)
	}

	// Byte-identical artifacts: the same campaign, undisturbed, in a fresh
	// store (same seed → same deterministic results).
	dir2 := t.TempDir()
	ref := &worker.Supervisor{Cmd: []string{os.Args[0]}, Env: env("WORKER_TEST_MODE=ok")}
	rres, err := ref.Run(context.Background(), worker.Request{
		Spec: specJSON("resume", 5, 5), CacheDir: filepath.Join(dir2, "cache"),
		ArtifactDir: filepath.Join(dir2, "art"), Workers: 1, Version: "wkr-v1",
	})
	if err != nil || rres.State != worker.StateDone {
		t.Fatalf("reference run: %+v, %v", rres, err)
	}
	got, _ := os.ReadFile(filepath.Join(dir, "art", "results.json"))
	want, _ := os.ReadFile(filepath.Join(dir2, "art", "results.json"))
	if len(want) == 0 || string(got) != string(want) {
		t.Fatalf("results.json differs between resumed (%d bytes) and undisturbed (%d bytes) runs", len(got), len(want))
	}
}

// TestSupervisorProgressKeepsBreakerClosed: a worker that dies on every
// incarnation but journals one fresh trial each time must crawl to completion
// — progress resets the crash-loop streak, so even K=2 never trips.
func TestSupervisorProgressKeepsBreakerClosed(t *testing.T) {
	dir := t.TempDir()
	sup := &worker.Supervisor{
		Cmd:         []string{os.Args[0]},
		Env:         env("WORKER_TEST_MODE=die-each"),
		CrashLoopK:  2,
		BackoffBase: time.Millisecond,
	}
	res, err := sup.Run(context.Background(), worker.Request{
		Spec: specJSON("crawl", 11, 4), CacheDir: filepath.Join(dir, "cache"),
		Workers: 1, Version: "wkr-v1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != worker.StateDone {
		t.Fatalf("crawling campaign state %q (err %q), want done", res.State, res.Err)
	}
	if res.Restarts != 3 || res.LastExit != "exit status 9" {
		t.Fatalf("restarts=%d last_exit=%q, want 3 / \"exit status 9\"", res.Restarts, res.LastExit)
	}
}

func TestSupervisorCrashLoopBreaker(t *testing.T) {
	var deaths int
	sup := &worker.Supervisor{
		Cmd:         []string{os.Args[0]},
		Env:         env("WORKER_TEST_MODE=crash"),
		CrashLoopK:  3,
		BackoffBase: time.Millisecond,
		OnExit:      func(int, string) { deaths++ },
	}
	res, err := sup.Run(context.Background(), worker.Request{
		Spec: specJSON("poison", 1, 3), CacheDir: t.TempDir(), Workers: 1, Version: "wkr-v1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != worker.StateCrashLoop {
		t.Fatalf("poison campaign state %q, want crash_loop", res.State)
	}
	if res.Restarts != 3 || deaths != 3 {
		t.Fatalf("restarts=%d deaths=%d, want 3/3 (breaker trips on the Kth, no extra spawn)", res.Restarts, deaths)
	}
	if res.LastExit != "exit status 3" {
		t.Fatalf("last_exit=%q, want \"exit status 3\"", res.LastExit)
	}
}

// TestSupervisorHeartbeatStall: a worker that says hello and then goes silent
// — no events, no journal appends — is declared wedged and killed; wedging
// every incarnation trips the breaker with cause heartbeat_stall.
func TestSupervisorHeartbeatStall(t *testing.T) {
	dir := t.TempDir()
	sup := &worker.Supervisor{
		Cmd:              []string{os.Args[0]},
		Env:              env("WORKER_TEST_MODE=hang"),
		HeartbeatTimeout: 150 * time.Millisecond,
		CrashLoopK:       2,
		BackoffBase:      time.Millisecond,
		JournalPath:      filepath.Join(dir, "never-written.journal"),
	}
	res, err := sup.Run(context.Background(), worker.Request{
		Spec: specJSON("wedged", 1, 3), CacheDir: dir, Workers: 1, Version: "wkr-v1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != worker.StateCrashLoop || res.LastExit != "heartbeat_stall" {
		t.Fatalf("wedged campaign = %+v, want crash_loop via heartbeat_stall", res)
	}
	if res.Restarts != 2 {
		t.Fatalf("restarts=%d, want 2", res.Restarts)
	}
}

// TestSupervisorRSSLimit: a worker ballooning past the RSS ceiling is killed
// with cause rss_limit. Linux-only: elsewhere rssBytes is a stub.
func TestSupervisorRSSLimit(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("RSS polling reads /proc/<pid>/statm")
	}
	sup := &worker.Supervisor{
		Cmd:         []string{os.Args[0]},
		Env:         env("WORKER_TEST_MODE=balloon"),
		RSSLimit:    64 << 20,
		CrashLoopK:  2,
		BackoffBase: time.Millisecond,
	}
	res, err := sup.Run(context.Background(), worker.Request{
		Spec: specJSON("balloon", 1, 3), CacheDir: t.TempDir(), Workers: 1, Version: "wkr-v1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != worker.StateCrashLoop || res.LastExit != "rss_limit" {
		t.Fatalf("ballooning campaign = %+v, want crash_loop via rss_limit", res)
	}
}

// TestSupervisorCancel: canceling the supervisor's context SIGTERMs the
// worker, which journals its progress and reports interrupted — the graceful
// half of the containment story.
func TestSupervisorCancel(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := make(chan struct{})
	var once sync.Once
	sup := &worker.Supervisor{
		Cmd:       []string{os.Args[0]},
		Env:       env("WORKER_TEST_MODE=ok", "WORKER_TEST_SLOW_MS=100"),
		KillGrace: 5 * time.Second,
		OnTrial:   func(worker.Event) { once.Do(func() { close(first) }) },
	}
	done := make(chan *worker.Result, 1)
	go func() {
		res, err := sup.Run(ctx, worker.Request{
			Spec: specJSON("cancelme", 2, 50), CacheDir: filepath.Join(dir, "cache"),
			Workers: 1, Version: "wkr-v1",
		})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	select {
	case <-first:
	case <-time.After(20 * time.Second):
		t.Fatal("worker never finished a trial")
	}
	cancel()
	select {
	case res := <-done:
		if res == nil || res.State != worker.StateInterrupted {
			t.Fatalf("canceled campaign = %+v, want interrupted", res)
		}
		if res.Restarts != 0 {
			t.Fatalf("cancel counted as a restart: %+v", res)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("supervisor never returned after cancel")
	}
}

// TestSupervisorDeadline: the campaign wall deadline spans incarnations and
// is terminal — a too-slow campaign fails, it does not restart.
func TestSupervisorDeadline(t *testing.T) {
	sup := &worker.Supervisor{
		Cmd:      []string{os.Args[0]},
		Env:      env("WORKER_TEST_MODE=ok", "WORKER_TEST_SLOW_MS=150"),
		Deadline: 400 * time.Millisecond,
	}
	res, err := sup.Run(context.Background(), worker.Request{
		Spec: specJSON("tooslow", 1, 50), CacheDir: t.TempDir(), Workers: 1, Version: "wkr-v1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != worker.StateFailed || res.LastExit != "deadline" {
		t.Fatalf("overdue campaign = %+v, want failed via deadline", res)
	}
}

// The in-memory transport (Supervisor.Cmd empty) runs the same protocol loop
// on a goroutine of this test process, building campaigns with
// Supervisor.Build.

func TestInMemoryCleanRun(t *testing.T) {
	dir := t.TempDir()
	art := filepath.Join(dir, "art")
	var log trialLog
	var pids []int
	sup := &worker.Supervisor{
		Build:   testBuild,
		OnSpawn: func(_, pid int) { pids = append(pids, pid) },
		OnTrial: log.add,
	}
	res, err := sup.Run(context.Background(), worker.Request{
		Spec: specJSON("mem-clean", 3, 4), CacheDir: filepath.Join(dir, "cache"),
		ArtifactDir: art, Workers: 1, Version: "wkr-v1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != worker.StateDone || res.Restarts != 0 {
		t.Fatalf("clean in-memory run: %+v, want done with 0 restarts", res)
	}
	if res.Summary.Executed != 4 || res.Summary.Cached != 0 || res.Ops == nil {
		t.Fatalf("summary %+v (ops %v), want 4 executed / 0 cached with an ops snapshot", res.Summary, res.Ops != nil)
	}
	if got := log.executedKeys(); len(got) != 4 {
		t.Fatalf("OnTrial saw %d executed trials, want 4: %v", len(got), got)
	}
	if len(pids) != 1 || pids[0] != 0 {
		t.Fatalf("OnSpawn saw pids %v, want one incarnation with pid 0", pids)
	}
	for _, name := range []string{"results.json", "metrics.txt"} {
		if _, serr := os.Stat(filepath.Join(art, name+".sha256")); serr != nil {
			t.Fatalf("artifact %s or its sidecar missing: %v", name, serr)
		}
	}
}

// TestInMemoryCancel: canceling the supervisor's context terminates the
// in-memory worker, which drains and reports interrupted in its own done
// event (the supervisor's fallback result carries no ops snapshot).
func TestInMemoryCancel(t *testing.T) {
	t.Setenv("WORKER_TEST_SLOW_MS", "20")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	sup := &worker.Supervisor{
		Build:     testBuild,
		KillGrace: 10 * time.Second,
		OnTrial:   func(worker.Event) { once.Do(cancel) },
	}
	res, err := sup.Run(ctx, worker.Request{
		Spec: specJSON("mem-cancel", 2, 50), CacheDir: filepath.Join(t.TempDir(), "cache"),
		Workers: 1, Version: "wkr-v1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != worker.StateInterrupted || res.Restarts != 0 {
		t.Fatalf("canceled in-memory run = %+v, want interrupted with 0 restarts", res)
	}
	if res.Ops == nil || res.Summary.Canceled == 0 {
		t.Fatalf("interrupted result %+v did not come from the worker's done event", res)
	}
}

// TestInMemoryMalformedRequest: a request the worker cannot decode ends the
// incarnation with exit code 2, reported with the same cause a child process
// exiting 2 gives, and the worker's stderr reaches Logf.
func TestInMemoryMalformedRequest(t *testing.T) {
	var mu sync.Mutex
	var causes, logs []string
	sup := &worker.Supervisor{
		Build:       testBuild,
		CrashLoopK:  1,
		BackoffBase: time.Millisecond,
		OnExit: func(_ int, cause string) {
			mu.Lock()
			causes = append(causes, cause)
			mu.Unlock()
		},
		Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	}
	// Invalid JSON in the raw spec makes the request unencodable, so the
	// worker reads an empty stdin.
	res, err := sup.Run(context.Background(), worker.Request{
		Spec: json.RawMessage(`{"name":`), CacheDir: t.TempDir(), Workers: 1, Version: "wkr-v1",
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if res.State != worker.StateCrashLoop || res.LastExit != "exit status 2" {
		t.Fatalf("malformed request = %+v, want crash_loop via exit status 2", res)
	}
	if len(causes) != 1 || causes[0] != "exit status 2" {
		t.Fatalf("OnExit saw %v, want [exit status 2]", causes)
	}
	var decoded bool
	for _, l := range logs {
		decoded = decoded || strings.Contains(l, "decoding request")
	}
	if !decoded {
		t.Fatalf("worker stderr never reached Logf: %q", logs)
	}
}

// TestInMemoryJournalFreeAfterRun: when Supervisor.Run returns — here after
// a cancel whose KillGrace expires while a trial is still running — the
// in-memory worker has let go of the campaign journal, so a successor can
// take its flock at once.
func TestInMemoryJournalFreeAfterRun(t *testing.T) {
	t.Setenv("WORKER_TEST_SLOW_MS", "200")
	cache := filepath.Join(t.TempDir(), "cache")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	sup := &worker.Supervisor{
		Build:     testBuild,
		KillGrace: time.Millisecond,
		OnTrial:   func(worker.Event) { once.Do(cancel) },
	}
	res, err := sup.Run(ctx, worker.Request{
		Spec: specJSON("mem-free", 4, 10), CacheDir: cache, Workers: 1, Version: "wkr-v1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != worker.StateInterrupted {
		t.Fatalf("canceled in-memory run = %+v, want interrupted", res)
	}
	if n, jerr := sweep.ProbeJournal(cache, "wkr-v1", "mem-free", 4); jerr != nil || n == 0 {
		t.Fatalf("journal probe right after Run = (%d, %v), want a free journal with the finished trial", n, jerr)
	}
}
