package simd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mkos/internal/fault/chaos"
	"mkos/internal/simd"
	"mkos/internal/sweep"
	"mkos/internal/sweep/campaigns"
)

// harness wires a Server to synthetic campaigns so tests exercise the real
// admission, queueing, persistence and resume machinery with fast,
// controllable trial bodies. Spec names select behavior: "block-" trials
// park until released (polling cancellation), anything else returns
// immediately. Trial entries and successful completions are counted, which
// is how the resume tests assert zero re-execution.
type harness struct {
	entries     atomic.Int64 // trial bodies entered
	completions atomic.Int64 // trial bodies returned successfully

	gate   chan struct{} // closed by release: every blocking trial may finish
	tokens chan struct{} // grant lets exactly n blocking trials finish
}

func newHarness() *harness {
	return &harness{gate: make(chan struct{}), tokens: make(chan struct{}, 64)}
}

// release lets every parked blocking trial finish.
func (h *harness) release() { close(h.gate) }

// grant lets exactly n parked blocking trials finish.
func (h *harness) grant(n int) {
	for i := 0; i < n; i++ {
		h.tokens <- struct{}{}
	}
}

// awaitCompletions blocks until n trial bodies have finished successfully.
func (h *harness) awaitCompletions(t *testing.T, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for h.completions.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d trial completions arrived", h.completions.Load(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// awaitEntries blocks until n trial bodies have been entered.
func (h *harness) awaitEntries(t *testing.T, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for h.entries.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d trial entries arrived", h.entries.Load(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// build is the Options.Build hook: spec.Runs trials (default 3), keyed on
// the spec name, each returning a value derived from the trial seed only —
// deterministic no matter which daemon incarnation executes it.
func (h *harness) build(spec *campaigns.Spec) (*sweep.Campaign, error) {
	n := spec.Runs
	if n <= 0 {
		n = 3
	}
	c := &sweep.Campaign{Name: spec.Name, Seed: spec.Seed}
	blocking := strings.HasPrefix(spec.Name, "block-")
	for i := 0; i < n; i++ {
		c.Trials = append(c.Trials, sweep.Trial{
			Key:  fmt.Sprintf("%s/t%03d", spec.Name, i),
			Spec: map[string]int{"i": i},
			Run: func(t *sweep.T) (any, error) {
				h.entries.Add(1)
				if blocking {
					for {
						select {
						case <-h.gate:
						case <-h.tokens:
						case <-time.After(2 * time.Millisecond):
							if t.Canceled() {
								return nil, sweep.ErrTrialCanceled
							}
							continue
						}
						break
					}
				}
				h.completions.Add(1)
				return map[string]int64{"seed": t.Seed}, nil
			},
		})
	}
	return c, nil
}

// specJSON builds a minimal spec body for the harness.
func specJSON(name string, seed int64, runs int) []byte {
	return []byte(fmt.Sprintf(`{"name":%q,"seed":%d,"runs":%d}`, name, seed, runs))
}

// testDaemon is one daemon incarnation under test: a Server, its HTTP
// front-end, and a client pointed at it.
type testDaemon struct {
	srv  *simd.Server
	http *httptest.Server
}

func startDaemon(t *testing.T, opts simd.Options) *testDaemon {
	t.Helper()
	srv, err := simd.NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	srv.Start()
	return &testDaemon{srv: srv, http: hs}
}

func (d *testDaemon) client(id string) *simd.Client {
	return &simd.Client{
		BaseURL:      d.http.URL,
		ClientID:     id,
		BaseDelay:    time.Millisecond,
		MaxDelay:     20 * time.Millisecond,
		PollInterval: 5 * time.Millisecond,
	}
}

// stop tears the incarnation down gracefully.
func (d *testDaemon) stop() {
	d.http.Close()
	d.srv.Drain()
}

// kill simulates a SIGKILL: the HTTP listener vanishes and the Server stops
// with no persistence courtesy.
func (d *testDaemon) kill() {
	d.http.Close()
	d.srv.Kill()
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestSubmitAwaitResults covers the happy path plus content-addressed
// dedupe: two submissions of the same spec (one after completion) converge
// on one campaign and one execution.
func TestSubmitAwaitResults(t *testing.T) {
	h := newHarness()
	d := startDaemon(t, simd.Options{Store: t.TempDir(), Build: h.build})
	defer d.stop()
	ctx := testCtx(t)
	c := d.client("alice")

	spec := specJSON("fast-a", 7, 4)
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Deduped {
		t.Fatalf("first submit: %+v", st)
	}
	if st, err = c.Await(ctx, st.ID); err != nil || st.State != simd.StateDone {
		t.Fatalf("await: %+v, %v", st, err)
	}
	if st.Executed != 4 || st.Failed != 0 {
		t.Fatalf("want 4 executed: %+v", st)
	}

	// Identical resubmission — and a reformatted one — both dedupe.
	again, err := c.Submit(ctx, spec)
	if err != nil || !again.Deduped || again.ID != st.ID {
		t.Fatalf("resubmit: %+v, %v", again, err)
	}
	reformatted := []byte(`{ "runs": 4, "seed": 7, "name": "fast-a" }`)
	again, err = c.Submit(ctx, reformatted)
	if err != nil || !again.Deduped || again.ID != st.ID {
		t.Fatalf("reformatted resubmit: %+v, %v", again, err)
	}
	if n := h.completions.Load(); n != 4 {
		t.Fatalf("trials executed %d times, want 4", n)
	}

	blob, err := c.Results(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var results []json.RawMessage
	if err := json.Unmarshal(blob, &results); err != nil || len(results) != 4 {
		t.Fatalf("results: %d entries, %v", len(results), err)
	}
}

// TestConcurrentSubmitCancelDrain hammers one daemon from many goroutines —
// submitters, resubmitters, cancelers, stats readers — then drains it while
// requests are still arriving. Run under -race this is the server's data-
// race certificate; the assertions check the books still balance.
func TestConcurrentSubmitCancelDrain(t *testing.T) {
	h := newHarness()
	d := startDaemon(t, simd.Options{
		Store: t.TempDir(), Build: h.build,
		MaxQueue: 128, MaxPerClient: 64, Concurrency: 2,
		DrainGrace: 2 * time.Second,
	})
	ctx := testCtx(t)

	const clients, per = 8, 6
	var wg sync.WaitGroup
	var submitted, rejected atomic.Int64
	ids := make(chan string, clients*per)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := d.client(fmt.Sprintf("c%d", ci))
			for i := 0; i < per; i++ {
				st, err := c.Submit(ctx, specJSON(fmt.Sprintf("fast-%d-%d", ci, i), int64(i), 2))
				if err != nil {
					rejected.Add(1)
					continue
				}
				submitted.Add(1)
				ids <- st.ID
				if i%3 == 0 {
					c.Cancel(ctx, st.ID) // races with execution on purpose
				}
				if i%2 == 0 {
					c.Stats(ctx)
				}
			}
		}(ci)
	}
	wg.Wait()
	close(ids)

	// Let the queue settle, then await every accepted campaign.
	c := d.client("awaiter")
	for id := range ids {
		st, err := c.Await(ctx, id)
		if err != nil {
			t.Fatalf("await %s: %v", id, err)
		}
		switch st.State {
		case simd.StateDone, simd.StateCanceled:
		default:
			t.Fatalf("campaign %s settled as %+v", id, st)
		}
	}
	d.stop()

	stats := d.srv.Stats()
	if got := int64(stats.Campaigns[simd.StateDone] + stats.Campaigns[simd.StateCanceled]); got != submitted.Load() {
		t.Fatalf("settled %d campaigns, submitted %d (stats %+v)", got, submitted.Load(), stats)
	}
}

// TestBackpressure fills a tiny queue with blocking campaigns and asserts
// over-limit submissions are refused with the typed reasons and counted in
// telemetry — and that a rejected client gets through after the flood
// clears.
func TestBackpressure(t *testing.T) {
	h := newHarness()
	d := startDaemon(t, simd.Options{
		Store: t.TempDir(), Build: h.build,
		MaxQueue: 3, MaxPerClient: 2,
	})
	defer d.stop()
	ctx := testCtx(t)

	// One blocking campaign occupies the dispatcher; the queue holds what
	// follows.
	runner := d.client("runner")
	first, err := runner.Submit(ctx, specJSON("block-hold", 1, 1))
	if err != nil {
		t.Fatal(err)
	}

	flooder := d.client("flooder")
	flooder.MaxAttempts = 1
	var queueFull, backlog int
	for i := 0; i < 6; i++ {
		_, err := flooder.Submit(ctx, specJSON(fmt.Sprintf("fast-f%d", i), 1, 1))
		switch {
		case err == nil:
		case strings.Contains(err.Error(), simd.ReasonClientBacklog):
			backlog++
		case strings.Contains(err.Error(), simd.ReasonQueueFull):
			queueFull++
		default:
			t.Fatalf("unexpected submit error: %v", err)
		}
	}
	if backlog == 0 {
		t.Fatalf("flooder was never refused for client backlog (queue_full=%d)", queueFull)
	}
	stats := d.srv.Stats()
	if stats.Rejected.Total() == 0 || stats.Rejected.ClientBacklog == 0 {
		t.Fatalf("rejections not accounted: %+v", stats.Rejected)
	}

	// Release the flood; the rejected client retries and succeeds.
	h.release()
	if _, err := runner.Await(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
	late := d.client("flooder")
	st, err := late.Submit(ctx, specJSON("fast-late", 1, 1))
	if err != nil {
		t.Fatalf("post-flood submit: %v", err)
	}
	if st, err = late.Await(ctx, st.ID); err != nil || st.State != simd.StateDone {
		t.Fatalf("post-flood await: %+v, %v", st, err)
	}
}

// TestFairness proves a flooding client cannot starve another: with client A
// holding a multi-campaign backlog, client B's single late submission is
// dispatched after at most one more of A's campaigns (round-robin), not
// after A's whole backlog.
func TestFairness(t *testing.T) {
	h := newHarness()
	var order []string
	var mu sync.Mutex
	d := startDaemon(t, simd.Options{
		Store: t.TempDir(), Build: h.build,
		MaxQueue: 16, MaxPerClient: 8,
		Observe: func(id, state string) {
			if state == simd.StateRunning {
				mu.Lock()
				order = append(order, id)
				mu.Unlock()
			}
		},
	})
	defer d.stop()
	ctx := testCtx(t)

	// A's first campaign blocks the dispatcher while the rest of the test
	// arranges the queue, so dispatch order is decided strictly by the
	// round-robin, not by submission timing.
	a := d.client("a")
	hold, err := a.Submit(ctx, specJSON("block-a0", 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	h.awaitEntries(t, 1) // a0 is on the dispatcher before anything else queues
	var aIDs []string
	for i := 1; i <= 4; i++ {
		st, err := a.Submit(ctx, specJSON(fmt.Sprintf("fast-a%d", i), 1, 1))
		if err != nil {
			t.Fatal(err)
		}
		aIDs = append(aIDs, st.ID)
	}
	b := d.client("b")
	bSt, err := b.Submit(ctx, specJSON("fast-b0", 1, 1))
	if err != nil {
		t.Fatal(err)
	}

	h.release()
	for _, id := range append(append([]string{hold.ID}, aIDs...), bSt.ID) {
		if _, err := d.client("awaiter").Await(ctx, id); err != nil {
			t.Fatal(err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	bPos := -1
	for i, id := range order {
		if id == bSt.ID {
			bPos = i
		}
	}
	// Dispatch order: a0 (running before b existed), then round-robin must
	// reach b no later than position 2 overall.
	if bPos < 0 || bPos > 2 {
		t.Fatalf("client b dispatched at position %d of %v — starved by a's backlog", bPos, order)
	}
}

// TestSlowClients runs submissions whose response bodies are read through
// deterministic slow readers — slow consumers must neither fail nor wedge
// the daemon for others.
func TestSlowClients(t *testing.T) {
	h := newHarness()
	d := startDaemon(t, simd.Options{
		Store: t.TempDir(), Build: h.build,
		MaxQueue: 64, MaxPerClient: 16,
	})
	defer d.stop()
	ctx := testCtx(t)

	plan := chaos.Plan{Seed: 99}
	tally := chaos.Flood(8, func(i int) error {
		c := d.client(fmt.Sprintf("slow-%d", i))
		c.WrapBody = func(r io.Reader) io.Reader {
			return &chaos.SlowReader{
				R:     r,
				Chunk: 1 + plan.Int("chunk", i, 0, 7),
				Delay: plan.Delay("delay", i, 100*time.Microsecond, time.Millisecond),
			}
		}
		st, err := c.Submit(ctx, specJSON(fmt.Sprintf("fast-slow%d", i), int64(i), 2))
		if err != nil {
			return err
		}
		if st, err = c.Await(ctx, st.ID); err != nil {
			return err
		}
		if st.State != simd.StateDone {
			return fmt.Errorf("campaign %s settled as %s", st.ID, st.State)
		}
		return nil
	})
	if tally.Failed != 0 {
		t.Fatalf("slow clients failed: %+v", tally)
	}
}

// TestKillResume is the crash-tolerance contract end to end, in process: a
// daemon is killed with a campaign mid-flight, a successor on the same
// store resumes it, no trial executes twice, and the artifacts byte-match a
// never-crashed run of the same spec.
func TestKillResume(t *testing.T) {
	store := t.TempDir()
	spec := specJSON("block-big", 42, 6)
	ctx := testCtx(t)

	h1 := newHarness()
	d1 := startDaemon(t, simd.Options{Store: store, Build: h1.build})
	st, err := d1.client("k").Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	id := st.ID

	// Let exactly two of the six trials finish (and land in the journal),
	// then kill the daemon mid-campaign.
	h1.grant(2)
	h1.awaitCompletions(t, 2)
	d1.kill()
	ran1 := h1.completions.Load()
	if ran1 != 2 {
		t.Fatalf("%d trials completed before the kill, want 2", ran1)
	}

	// Successor on the same store: the campaign must be resumed, finish the
	// balance, and in total each of the 6 trials completes exactly once
	// across both incarnations.
	h2 := newHarness()
	h2.release()
	d2 := startDaemon(t, simd.Options{Store: store, Build: h2.build})
	defer d2.stop()
	if got := d2.srv.Stats().Resumed; got != 1 {
		t.Fatalf("successor resumed %d campaigns, want 1", got)
	}
	fin, err := d2.client("k").Await(ctx, id)
	if err != nil || fin.State != simd.StateDone {
		t.Fatalf("resumed campaign: %+v, %v", fin, err)
	}
	ran2 := h2.completions.Load()
	if ran1+ran2 != 6 {
		t.Fatalf("%d + %d trial completions across incarnations, want exactly 6", ran1, ran2)
	}
	if fin.Executed != int(ran2) || fin.Cached != int(ran1) {
		t.Fatalf("resumed status %+v does not account executions %d/%d", fin, ran1, ran2)
	}

	// Byte-identity: a never-crashed daemon on a fresh store produces the
	// same results.json.
	got, err := d2.client("k").Results(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	h3 := newHarness()
	h3.release()
	d3 := startDaemon(t, simd.Options{Store: t.TempDir(), Build: h3.build})
	defer d3.stop()
	st3, err := d3.client("k").Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d3.client("k").Await(ctx, st3.ID); err != nil {
		t.Fatal(err)
	}
	want, err := d3.client("k").Results(ctx, st3.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed results differ from clean run:\n--- resumed ---\n%s\n--- clean ---\n%s", got, want)
	}
}

// TestDrainRequeue covers the graceful path: a drain with a blocking
// campaign in flight journals it as interrupted, and the next incarnation
// requeues and finishes it.
func TestDrainRequeue(t *testing.T) {
	store := t.TempDir()
	ctx := testCtx(t)

	h1 := newHarness()
	d1 := startDaemon(t, simd.Options{
		Store: store, Build: h1.build,
		DrainGrace: 20 * time.Millisecond,
	})
	st, err := d1.client("d").Submit(ctx, specJSON("block-drain", 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the campaign to be running (its trials parked), then drain
	// without ever releasing: the grace expires and the campaign is
	// interrupted, not finished.
	h1.awaitEntries(t, 1)
	d1.stop()
	h2 := newHarness()
	h2.release()
	after, err := simd.NewServer(simd.Options{Store: store, Build: h2.build})
	if err != nil {
		t.Fatal(err)
	}
	// The drained campaign must come back queued, not lost and not done.
	if got := after.Stats().Resumed; got != 1 {
		t.Fatalf("post-drain incarnation resumed %d, want 1", got)
	}
	after.Start()
	hs := httptest.NewServer(after.Handler())
	defer hs.Close()
	defer after.Drain()
	c := &simd.Client{BaseURL: hs.URL, PollInterval: 5 * time.Millisecond}
	fin, err := c.Await(ctx, st.ID)
	if err != nil || fin.State != simd.StateDone {
		t.Fatalf("after drain+restart: %+v, %v", fin, err)
	}
}

// TestDrainRejectsSubmissions asserts the draining daemon refuses new work
// with the typed reason.
func TestDrainRejectsSubmissions(t *testing.T) {
	h := newHarness()
	d := startDaemon(t, simd.Options{Store: t.TempDir(), Build: h.build})
	d.srv.Drain()
	defer d.http.Close()
	c := d.client("late")
	c.MaxAttempts = 1
	_, err := c.Submit(testCtx(t), specJSON("fast-late", 1, 1))
	if err == nil || !strings.Contains(err.Error(), simd.ReasonDraining) {
		t.Fatalf("submit to draining daemon: %v", err)
	}
}

// TestClientBackoffDeterministic pins the client's retry schedule: capped
// doubling, no jitter.
func TestClientBackoffDeterministic(t *testing.T) {
	c := &simd.Client{BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}
	want := []time.Duration{
		50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 800 * time.Millisecond, 1600 * time.Millisecond,
		2 * time.Second, 2 * time.Second,
	}
	for i, w := range want {
		if got := c.Backoff(i); got != w {
			t.Fatalf("backoff(%d) = %v, want %v", i, got, w)
		}
	}
	// Far attempts (shift overflow territory) stay capped.
	if got := c.Backoff(200); got != 2*time.Second {
		t.Fatalf("backoff(200) = %v", got)
	}
}

// TestRecoveryBypassesAdmissionBounds asserts a restarted daemon re-admits
// every unfinished campaign even when the persisted set exceeds the
// successor's queue or per-client bounds: recovered work was already
// admitted, so it must not be re-gated (and must not land permanently
// failed) on restart.
func TestRecoveryBypassesAdmissionBounds(t *testing.T) {
	store := t.TempDir()
	ctx := testCtx(t)

	// Incarnation 1, generous bounds: one blocking campaign occupies the
	// dispatcher while five more queue behind it for the same client.
	h1 := newHarness()
	d1 := startDaemon(t, simd.Options{
		Store: store, Build: h1.build,
		MaxQueue: 16, MaxPerClient: 10, Concurrency: 1,
		DrainGrace: 20 * time.Millisecond,
	})
	c1 := d1.client("bulk")
	ids := make([]string, 0, 6)
	st, err := c1.Submit(ctx, specJSON("block-bulk", 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, st.ID)
	h1.awaitEntries(t, 1)
	for i := 0; i < 5; i++ {
		st, err := c1.Submit(ctx, specJSON(fmt.Sprintf("fast-bulk%d", i), 1, 1))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	d1.stop() // interrupts the running campaign, leaves five queued on disk

	// Incarnation 2, tight bounds: all six persisted campaigns exceed both
	// MaxQueue and MaxPerClient, yet every one must resume and finish.
	h2 := newHarness()
	h2.release()
	d2 := startDaemon(t, simd.Options{
		Store: store, Build: h2.build,
		MaxQueue: 3, MaxPerClient: 2, Concurrency: 1,
	})
	defer d2.stop()
	if got := d2.srv.Stats().Resumed; got != int64(len(ids)) {
		t.Fatalf("successor resumed %d campaigns, want %d", got, len(ids))
	}
	for _, id := range ids {
		fin, err := d2.client("bulk").Await(ctx, id)
		if err != nil || fin.State != simd.StateDone {
			t.Fatalf("recovered campaign %s: %+v, %v", id, fin, err)
		}
	}
}

// TestRejectedSubmissionNotPersisted asserts a queue-rejected submission
// leaves nothing in the store: the client was told 429, so no later
// incarnation may resurrect and run the campaign behind its back.
func TestRejectedSubmissionNotPersisted(t *testing.T) {
	store := t.TempDir()
	ctx := testCtx(t)

	h1 := newHarness()
	d1 := startDaemon(t, simd.Options{
		Store: store, Build: h1.build,
		MaxQueue: 1, MaxPerClient: 1, Concurrency: 1,
	})
	c1 := d1.client("full")
	held, err := c1.Submit(ctx, specJSON("block-held", 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	h1.awaitEntries(t, 1) // on the dispatcher; the queue itself is empty

	queued, err := d1.client("other").Submit(ctx, specJSON("fast-fills", 1, 1))
	if err != nil {
		t.Fatal(err)
	}

	rejSpec := specJSON("fast-rejected", 1, 1)
	rejID, _, err := simd.SpecID(rejSpec)
	if err != nil {
		t.Fatal(err)
	}
	flooder := d1.client("late")
	flooder.MaxAttempts = 1
	if _, err := flooder.Submit(ctx, rejSpec); err == nil ||
		!strings.Contains(err.Error(), simd.ReasonQueueFull) {
		t.Fatalf("over-limit submit: %v", err)
	}
	for _, id := range d1.srv.CampaignIDs() {
		if id == rejID {
			t.Fatal("rejected campaign still registered in memory")
		}
	}

	// Crash and restart: the rejected campaign must not come back.
	d1.kill()
	h2 := newHarness()
	h2.release()
	d2 := startDaemon(t, simd.Options{Store: store, Build: h2.build})
	defer d2.stop()
	for _, id := range d2.srv.CampaignIDs() {
		if id == rejID {
			t.Fatal("rejected campaign resurrected by recovery")
		}
	}
	for _, id := range []string{held.ID, queued.ID} {
		if fin, err := d2.client("x").Await(ctx, id); err != nil || fin.State != simd.StateDone {
			t.Fatalf("admitted campaign %s after restart: %+v, %v", id, fin, err)
		}
	}
}

// TestBadSpecRejected asserts malformed specs get a typed 400, are not
// retried by the client, and leave nothing behind in the store.
func TestBadSpecRejected(t *testing.T) {
	h := newHarness()
	d := startDaemon(t, simd.Options{Store: t.TempDir(), Build: h.build})
	defer d.stop()
	c := d.client("bad")
	for _, body := range []string{
		`{"name": 42}`,
		// A misspelled section must not silently drop its trials.
		`{"name": "x", "figure4": {"ofp_nodes": 2}, "fualt": {"jobs": 1}}`,
	} {
		start := time.Now()
		_, err := c.Submit(testCtx(t), []byte(body))
		if err == nil || !strings.Contains(err.Error(), simd.ReasonBadSpec) {
			t.Fatalf("bad spec %s: %v", body, err)
		}
		if time.Since(start) > time.Second {
			t.Fatalf("client retried a non-retryable rejection of %s", body)
		}
	}
	if ids := d.srv.CampaignIDs(); len(ids) != 0 {
		t.Fatalf("bad spec left campaigns behind: %v", ids)
	}
}

// TestCommittedSpecIDsStable pins the content-hash identity of the committed
// specs: a Spec field that changes canonical JSON for existing specs would
// orphan every stored campaign.
func TestCommittedSpecIDsStable(t *testing.T) {
	for name, want := range map[string]string{
		"ci-sweep":       "160aabfa7669a3d0",
		"simd-smoke":     "be6569a5affe5f40",
		"simd-supervise": "9106ae8dc7afa253",
	} {
		raw, err := os.ReadFile(filepath.Join("..", "..", "specs", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		id, _, err := simd.SpecID(raw)
		if err != nil {
			t.Fatal(err)
		}
		if id != want {
			t.Errorf("SpecID(specs/%s.json) = %s, want %s", name, id, want)
		}
	}
}
