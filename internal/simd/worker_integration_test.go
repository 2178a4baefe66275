package simd_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mkos/internal/fault/chaos"
	"mkos/internal/simd"
	"mkos/internal/simd/worker"
	"mkos/internal/sweep"
	"mkos/internal/sweep/campaigns"
)

// TestMain doubles this test binary as the daemon's worker process: when the
// supervisor re-execs it with SIMD_TEST_WORKER=1 it runs the real worker
// protocol (worker.Main) with synthetic trial bodies, so the out-of-process
// tests exercise the entire daemon → supervisor → child → journal → store
// pipeline with nothing mocked. Every other daemon test runs the same
// protocol over the in-memory transport.
func TestMain(m *testing.M) {
	if os.Getenv("SIMD_TEST_WORKER") == "1" {
		os.Exit(worker.Main(os.Stdin, os.Stdout, os.Stderr, testWorkerBuild))
	}
	os.Exit(m.Run())
}

// testWorkerBuild mirrors harness.build exactly — same keys, same trial
// specs, same seed-derived values — so subprocess results byte-compare
// against in-memory runs of the same campaign. Name prefixes select failure
// behavior: "poison-" kills the process inside the first trial body (before
// anything journals — the no-progress crash loop), "slow-" paces each trial
// at ~60ms so chaos kills land mid-campaign.
func testWorkerBuild(spec *campaigns.Spec) (*sweep.Campaign, error) {
	n := spec.Runs
	if n <= 0 {
		n = 3
	}
	poison := strings.HasPrefix(spec.Name, "poison-")
	slow := strings.HasPrefix(spec.Name, "slow-")
	c := &sweep.Campaign{Name: spec.Name, Seed: spec.Seed}
	for i := 0; i < n; i++ {
		c.Trials = append(c.Trials, sweep.Trial{
			Key:  fmt.Sprintf("%s/t%03d", spec.Name, i),
			Spec: map[string]int{"i": i},
			Run: func(t *sweep.T) (any, error) {
				if poison {
					os.Exit(3)
				}
				if slow {
					time.Sleep(60 * time.Millisecond)
				}
				return map[string]int64{"seed": t.Seed}, nil
			},
		})
	}
	return c, nil
}

// testWorkerOpts re-execs this test binary as the worker, with fast restart
// backoff so crash-loop tests converge quickly.
func testWorkerOpts() simd.WorkerOptions {
	return simd.WorkerOptions{
		Cmd:         []string{os.Args[0]},
		Env:         append(os.Environ(), "SIMD_TEST_WORKER=1"),
		BackoffBase: time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
	}
}

// TestTransportsMatch: the same campaign run through the subprocess
// transport and through the in-memory transport produces byte-identical
// results.json and metrics.txt and the same trial accounting — and on the
// subprocess side not one trial body executes inside the daemon.
func TestTransportsMatch(t *testing.T) {
	ctx := testCtx(t)
	h := newHarness()
	storeW := t.TempDir()
	dw := startDaemon(t, simd.Options{Store: storeW, Build: h.build, Worker: testWorkerOpts()})
	defer dw.stop()
	cl := dw.client("iso")

	st, err := cl.Submit(ctx, specJSON("wmode", 5, 4))
	if err != nil {
		t.Fatal(err)
	}
	st, err = cl.Await(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != simd.StateDone || st.Executed != 4 || st.Cached != 0 {
		t.Fatalf("subprocess campaign = %+v, want done with 4 executed", st)
	}
	if st.Restarts != 0 || st.Breaker == "open" {
		t.Fatalf("undisturbed campaign reports restarts=%d breaker=%q", st.Restarts, st.Breaker)
	}
	if n := h.entries.Load(); n != 0 {
		t.Fatalf("%d trial bodies ran inside the daemon; the subprocess transport must execute out of process", n)
	}
	wres, err := cl.Results(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}

	// The reference: same spec, in-memory transport, fresh store.
	h2 := newHarness()
	storeM := t.TempDir()
	dp := startDaemon(t, simd.Options{Store: storeM, Build: h2.build})
	defer dp.stop()
	cl2 := dp.client("ref")
	st2, err := cl2.Submit(ctx, specJSON("wmode", 5, 4))
	if err != nil {
		t.Fatal(err)
	}
	if st2, err = cl2.Await(ctx, st2.ID); err != nil || st2.State != simd.StateDone {
		t.Fatalf("reference campaign: %+v, %v", st2, err)
	}
	if st2.Executed != st.Executed || st2.Cached != st.Cached || st2.Failed != st.Failed || st2.Total != st.Total {
		t.Fatalf("in-memory status %+v does not match subprocess status %+v", st2, st)
	}
	pres, err := cl2.Results(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(wres) != string(pres) {
		t.Fatalf("subprocess results (%d bytes) differ from in-memory results (%d bytes)", len(wres), len(pres))
	}
	wmet, err := os.ReadFile(filepath.Join(storeW, "campaigns", st.ID, "metrics.txt"))
	if err != nil {
		t.Fatal(err)
	}
	pmet, err := os.ReadFile(filepath.Join(storeM, "campaigns", st2.ID, "metrics.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(wmet) != string(pmet) {
		t.Fatalf("subprocess metrics.txt (%d bytes) differs from in-memory metrics.txt (%d bytes)", len(wmet), len(pmet))
	}
}

// TestWorkerKilledTwiceResumes is the acceptance scenario: the chaos
// WorkerKiller SIGKILLs the campaign's worker twice mid-run; the supervisor
// restarts it each time, the journal carries the finished trials across, the
// campaign completes with zero re-executed trials and its artifacts are
// byte-identical to an unharassed run.
func TestWorkerKilledTwiceResumes(t *testing.T) {
	ctx := testCtx(t)
	store := t.TempDir()
	killer := &chaos.WorkerKiller{
		Plan:  chaos.NewPlan(7),
		Kills: 2,
		Min:   80 * time.Millisecond,
		Max:   150 * time.Millisecond,
	}
	wo := testWorkerOpts()
	wo.SpawnHook = func(campaign string, attempt, pid int) { killer.Arm(pid) }
	h := newHarness()
	d := startDaemon(t, simd.Options{Store: store, Build: h.build, Worker: wo})
	defer d.stop()
	cl := d.client("chaos")

	st, err := cl.Submit(ctx, specJSON("slow-prey", 9, 8))
	if err != nil {
		t.Fatal(err)
	}
	if st, err = cl.Await(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != simd.StateDone {
		t.Fatalf("harassed campaign = %+v, want done", st)
	}
	if st.Restarts != 2 {
		t.Fatalf("restarts=%d, want 2 (both kills landed: %d)", st.Restarts, killer.Killed())
	}
	if st.LastExit != "signal: killed" {
		t.Fatalf("last_exit=%q, want \"signal: killed\"", st.LastExit)
	}
	// The merge accounts for every trial exactly once across incarnations.
	if st.Executed+st.Cached != 8 || st.Failed != 0 {
		t.Fatalf("executed=%d cached=%d failed=%d, want executed+cached=8", st.Executed, st.Cached, st.Failed)
	}
	// Zero re-execution, asserted at the journal: one line per trial, none
	// appended twice.
	if n, jerr := sweep.ProbeJournal(filepath.Join(store, "cache"), "", "slow-prey", 9); jerr != nil || n != 8 {
		t.Fatalf("journal probe = (%d, %v), want (8, nil) — a recount means a trial re-executed", n, jerr)
	}
	killed, err := cl.Results(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}

	// The unharassed reference in a fresh store.
	h2 := newHarness()
	d2 := startDaemon(t, simd.Options{Store: t.TempDir(), Build: h2.build, Worker: testWorkerOpts()})
	defer d2.stop()
	cl2 := d2.client("calm")
	st2, err := cl2.Submit(ctx, specJSON("slow-prey", 9, 8))
	if err != nil {
		t.Fatal(err)
	}
	if st2, err = cl2.Await(ctx, st2.ID); err != nil || st2.State != simd.StateDone {
		t.Fatalf("reference campaign: %+v, %v", st2, err)
	}
	calm, err := cl2.Results(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(killed) != string(calm) {
		t.Fatalf("results differ: killed-twice run %d bytes, unharassed run %d bytes", len(killed), len(calm))
	}
}

// TestCrashLoopBreakerIsolates: a poison campaign whose worker dies on every
// incarnation without progress trips the breaker after K deaths and lands in
// the terminal crash_loop state — while a healthy campaign sharing the daemon
// completes untouched. Resubmitting the poison spec re-arms the breaker.
func TestCrashLoopBreakerIsolates(t *testing.T) {
	ctx := testCtx(t)
	wo := testWorkerOpts()
	wo.CrashLoopK = 3
	h := newHarness()
	d := startDaemon(t, simd.Options{Store: t.TempDir(), Build: h.build, Concurrency: 2, Worker: wo})
	defer d.stop()
	cl := d.client("ops")

	poison, err := cl.Submit(ctx, specJSON("poison-spec", 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := cl.Submit(ctx, specJSON("slow-good", 2, 5))
	if err != nil {
		t.Fatal(err)
	}

	if healthy, err = cl.Await(ctx, healthy.ID); err != nil || healthy.State != simd.StateDone {
		t.Fatalf("healthy campaign beside a crash loop: %+v, %v", healthy, err)
	}
	if poison, err = cl.Await(ctx, poison.ID); err != nil {
		t.Fatal(err)
	}
	if poison.State != simd.StateCrashLoop {
		t.Fatalf("poison campaign state %q (err %q), want crash_loop", poison.State, poison.Err)
	}
	if poison.Restarts != 3 || poison.LastExit != "exit status 3" {
		t.Fatalf("poison restarts=%d last_exit=%q, want 3 / \"exit status 3\"", poison.Restarts, poison.LastExit)
	}
	if poison.Breaker != "open" {
		t.Fatalf("poison breaker=%q, want open", poison.Breaker)
	}
	if !strings.Contains(poison.Err, "crash loop") {
		t.Fatalf("poison err %q does not name the crash loop", poison.Err)
	}
	stats, _, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Campaigns["crash_loop"] != 1 || stats.Campaigns["done"] != 1 {
		t.Fatalf("stats.Campaigns = %v, want crash_loop:1 done:1", stats.Campaigns)
	}

	// Resubmission is the operator's re-arm: the campaign requeues (not
	// deduped-terminal), runs again, and trips again.
	again, err := cl.Submit(ctx, specJSON("poison-spec", 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if again.Terminal() {
		t.Fatalf("resubmitted poison campaign answered terminal %q; want requeued", again.State)
	}
	if again, err = cl.Await(ctx, again.ID); err != nil || again.State != simd.StateCrashLoop {
		t.Fatalf("re-armed poison campaign: %+v, %v", again, err)
	}
	if again.Restarts != 3 {
		t.Fatalf("re-armed run restarts=%d, want a fresh count of 3", again.Restarts)
	}
}

// TestWorkerJournalBusyPreflight: when another process (here: an in-process
// sweep.Run) holds the campaign's journal flock, the dispatcher's preflight
// fails the campaign with a typed journal error before any worker spawns —
// zero incarnations burned against the breaker — and once the holder exits, a
// resubmission resumes the campaign entirely from the holder's journal.
func TestWorkerJournalBusyPreflight(t *testing.T) {
	ctx := testCtx(t)
	store := t.TempDir()
	h := newHarness()
	d := startDaemon(t, simd.Options{Store: store, Build: h.build, Worker: testWorkerOpts()})
	defer d.stop()
	cl := d.client("overlap")

	// The conflicting holder: the same campaign identity (name, seed, version,
	// cache dir) with the same trial identities, run in process and parked on
	// its first trial so it holds the journal flock.
	release := holdJournal(t, filepath.Join(store, "cache"), "busy-j", 3, 3)
	defer release()

	st, err := cl.Submit(ctx, specJSON("busy-j", 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if st, err = cl.Await(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != simd.StateFailed || !strings.Contains(st.Err, "journal") {
		t.Fatalf("campaign against a held journal = %+v, want failed with a journal error", st)
	}
	if st.Restarts != 0 {
		t.Fatalf("preflight burned %d worker incarnations; the probe must catch the conflict first", st.Restarts)
	}

	release()

	// The holder journaled all three trials; the resubmitted campaign resumes
	// from them without executing anything.
	st2, err := cl.Submit(ctx, specJSON("busy-j", 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if st2.Terminal() {
		t.Fatalf("resubmission answered terminal %q; want requeued", st2.State)
	}
	if st2, err = cl.Await(ctx, st2.ID); err != nil || st2.State != simd.StateDone {
		t.Fatalf("resubmitted campaign: %+v, %v", st2, err)
	}
	if st2.Executed != 0 || st2.Cached != 3 {
		t.Fatalf("resumed campaign executed=%d cached=%d, want 0/3 — every trial was in the holder's journal", st2.Executed, st2.Cached)
	}
}

// holdJournal stands in for another daemon on the same cache dir: it runs a
// campaign with the harness's trial identities for (name, seed, n) in
// process, parked on its first trial so it holds the campaign journal's
// flock. release lets it finish and waits for it; it is idempotent.
func holdJournal(t *testing.T, cache, name string, seed int64, n int) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	entered := make(chan struct{})
	holder := &sweep.Campaign{Name: name, Seed: seed}
	for i := 0; i < n; i++ {
		i := i
		holder.Trials = append(holder.Trials, sweep.Trial{
			Key:  fmt.Sprintf("%s/t%03d", name, i),
			Spec: map[string]int{"i": i},
			Run: func(tt *sweep.T) (any, error) {
				if i == 0 {
					close(entered)
					<-gate
				}
				return map[string]int64{"seed": tt.Seed}, nil
			},
		})
	}
	holderDone := make(chan error, 1)
	go func() {
		_, err := sweep.Run(holder, sweep.Options{Workers: 1, CacheDir: cache})
		holderDone <- err
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("holder campaign never started")
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			close(gate)
			if err := <-holderDone; err != nil {
				t.Fatalf("holder campaign failed: %v", err)
			}
		})
	}
}

// TestRequeueRefusedKeepsStatus: resubmitting a journal-busy campaign while
// its client's backlog is full is refused with the same typed 429 a fresh
// submission would get — not a 409 journal conflict — and the campaign's
// failed status stays exactly as it was. Once the backlog drains and the
// journal is free, the resubmission requeues it.
func TestRequeueRefusedKeepsStatus(t *testing.T) {
	ctx := testCtx(t)
	store := t.TempDir()
	h := newHarness()
	d := startDaemon(t, simd.Options{Store: store, Build: h.build, MaxPerClient: 1})
	defer d.stop()
	cl := d.client("requeue")

	release := holdJournal(t, filepath.Join(store, "cache"), "busy-q", 3, 3)
	defer release()
	st, err := cl.Submit(ctx, specJSON("busy-q", 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if st, err = cl.Await(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != simd.StateFailed || !strings.Contains(st.Err, "journal") {
		t.Fatalf("campaign against a held journal = %+v, want failed with a journal error", st)
	}

	// Fill the client's backlog: a blocking campaign holds the dispatcher and
	// the next one waits in the queue.
	hold, err := cl.Submit(ctx, specJSON("block-q", 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	h.awaitEntries(t, 1)
	queued, err := cl.Submit(ctx, specJSON("fast-q", 1, 1))
	if err != nil {
		t.Fatal(err)
	}

	one := d.client("requeue")
	one.MaxAttempts = 1
	_, err = one.Submit(ctx, specJSON("busy-q", 3, 3))
	if err == nil || !strings.Contains(err.Error(), "HTTP 429") || !strings.Contains(err.Error(), simd.ReasonClientBacklog) {
		t.Fatalf("requeue against a full backlog: %v, want typed 429 %s", err, simd.ReasonClientBacklog)
	}
	after, err := cl.Status(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after != st {
		t.Fatalf("refused requeue changed the campaign:\n before %+v\n after  %+v", st, after)
	}
	if _, err := one.Results(ctx, st.ID); err == nil || !strings.Contains(err.Error(), simd.ReasonJournalBusy) {
		t.Fatalf("results after a refused requeue: %v, want the journal conflict still reported", err)
	}
	if n := d.srv.Stats().Rejected.ClientBacklog; n != 1 {
		t.Fatalf("rejected.client_backlog = %d, want 1", n)
	}

	h.release()
	for _, id := range []string{hold.ID, queued.ID} {
		if fin, err := cl.Await(ctx, id); err != nil || fin.State != simd.StateDone {
			t.Fatalf("backlog campaign %s: %+v, %v", id, fin, err)
		}
	}
	release()
	resub, err := cl.Submit(ctx, specJSON("busy-q", 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if resub.Terminal() {
		t.Fatalf("resubmission answered terminal %q; want requeued", resub.State)
	}
	if fin, err := cl.Await(ctx, st.ID); err != nil || fin.State != simd.StateDone || fin.Cached != 3 {
		t.Fatalf("requeued campaign: %+v, %v, want done with 3 cached", fin, err)
	}
}

// TestSubmitNoSpace: a full disk refuses the submission with a typed 507 that
// the client never retries.
func TestSubmitNoSpace(t *testing.T) {
	ctx := testCtx(t)
	h := newHarness()
	faults := &chaos.StoreFaults{NoSpaceAfter: 1}
	d := startDaemon(t, simd.Options{Store: t.TempDir(), Build: h.build, StoreFault: faults.Fault})
	defer d.stop()
	cl := d.client("full")
	cl.MaxAttempts = 5

	_, err := cl.Submit(ctx, specJSON("doomed", 1, 3))
	if err == nil {
		t.Fatal("submission to a full disk succeeded")
	}
	if !strings.Contains(err.Error(), "507") || !strings.Contains(err.Error(), simd.ReasonNoSpace) {
		t.Fatalf("full-disk submit error %q, want a typed 507 %s", err, simd.ReasonNoSpace)
	}
	stats, _, serr := cl.Stats(ctx)
	if serr != nil {
		t.Fatal(serr)
	}
	// Exactly one rejection: the client recognized 507 as non-retryable.
	if stats.Rejected.NoSpace != 1 {
		t.Fatalf("rejected.no_space = %d, want 1 (a higher count means the client retried a full disk)", stats.Rejected.NoSpace)
	}
}
