// Package simd is simulation-as-a-service: a long-lived HTTP/JSON daemon
// that accepts the declarative campaign specs the CLIs already consume
// (internal/sweep/campaigns), runs each in a supervised sweep worker, and
// is engineered to stay up and stay correct under failure and overload —
// the operational regime of the paper's pre-exascale campaigns, where node
// failures, daemons dying mid-run and oversubscribed queues are routine.
//
// The robustness story rests on four legs:
//
//   - Bounded admission. The submit queue is finite (Options.MaxQueue) and
//     per-client backlogs are finite (Options.MaxPerClient); an over-limit
//     submission is refused with a typed 429 and a retry hint, a submission
//     during drain with a typed 503. Dispatch is round-robin across
//     clients, so a client flooding its allowance delays other clients by
//     at most one campaign each — it cannot starve them.
//
//   - Content-addressed idempotency. A campaign's identity is the hash of
//     its canonical spec (SpecID). Concurrent identical submissions from
//     any number of clients collapse onto one campaign object and one
//     execution; a client that loses a submit response simply resubmits.
//     Distinct campaigns still share trial results through the sweep
//     subsystem's content-addressed cache, so identical trials execute once
//     machine-wide.
//
//   - Crash tolerance. Specs and statuses persist in the store the moment
//     they are admitted, and every finished trial lands in the campaign's
//     crash-safe journal (internal/sweep). A SIGKILLed daemon restarted on
//     the same store re-admits every unfinished campaign and resumes it
//     with zero re-executed trials; because the merge is deterministic, the
//     resumed results.json is byte-identical to an uninterrupted run's.
//
//   - Graceful drain. On SIGTERM the daemon stops admitting (503), gives
//     running campaigns a short grace to finish, then cancels them
//     cooperatively — the journal already holds their finished trials — and
//     persists every unfinished campaign as queued so the next incarnation
//     resumes it.
//
// Wall-clock observations (queue depth, admission rejects, submit-to-result
// latency) live in an ops-side telemetry registry exposed at /v1/stats;
// they never mix with the deterministic campaign artifacts.
package simd

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"time"

	cas "mkos/internal/simd/store"
	"mkos/internal/sweep"
	"mkos/internal/sweep/campaigns"
)

// Campaign lifecycle states. A campaign moves queued → running → one of the
// terminal states; drain and crash push a running campaign back to queued
// (on disk) so the next incarnation resumes it.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateCanceled    = "canceled"
	StateInterrupted = "interrupted" // in-memory/on-disk marker for drained work; re-admitted as queued
	// StateCrashLoop is the circuit breaker's terminal state: the campaign's
	// worker died CrashLoopK consecutive times without completing a single
	// new trial, so the supervisor stopped restarting it. Resubmitting the
	// campaign re-arms the breaker and requeues it.
	StateCrashLoop = "crash_loop"
)

// Typed admission-rejection reasons, returned in ErrorResponse.Error and
// counted per-reason in the ops registry.
const (
	ReasonQueueFull     = "queue_full"     // the global queue bound is met
	ReasonClientBacklog = "client_backlog" // this client's backlog bound is met
	ReasonDraining      = "draining"       // the daemon is shutting down
	ReasonBadSpec       = "bad_spec"       // the spec failed to parse or enumerate
	ReasonTooLarge      = "spec_too_large" // the request body exceeded MaxSpecBytes
	ReasonNotFound      = "unknown_campaign"
	ReasonNotDone       = "not_done" // results requested before a terminal state
	// ReasonJournalBusy marks a campaign whose sweep journal is flocked by
	// another daemon on the same cache dir (sweep.ErrJournalBusy): a
	// transient deployment overlap, answered with HTTP 409. Resubmitting the
	// campaign requeues it once the other daemon lets go.
	ReasonJournalBusy = "journal_busy"
	// ReasonNoSpace marks a submission the store could not persist because
	// the disk is full (ENOSPC), answered with HTTP 507. Unlike the 429s
	// there is no useful retry hint — the condition clears when an operator
	// frees space, not when the client waits politely.
	ReasonNoSpace = "no_space"
)

// Options configures a Server.
type Options struct {
	// Store is the daemon's state directory: campaigns/<id>/ for specs,
	// statuses and artifacts, cache/ for the shared sweep result cache and
	// campaign journals. Required.
	Store string
	// Workers is the sweep worker-pool size per campaign; <= 0 means all
	// cores.
	Workers int
	// Concurrency is how many campaigns run at once; <= 0 means 1. Per-
	// campaign parallelism comes from Workers; raising Concurrency trades
	// cross-campaign cache sharing (a trial two queued campaigns share may
	// execute twice when they overlap) for shorter queues.
	Concurrency int
	// MaxQueue bounds queued campaigns across all clients; <= 0 means 64.
	MaxQueue int
	// MaxPerClient bounds one client's queued campaigns; <= 0 means 8.
	MaxPerClient int
	// TrialTimeout and CancelGrace thread through to sweep.Options: a
	// runaway trial is canceled cooperatively after TrialTimeout and its
	// goroutine abandoned after CancelGrace.
	TrialTimeout time.Duration
	CancelGrace  time.Duration
	// DrainGrace is how long running campaigns get to finish naturally on
	// drain before being canceled (their finished trials are journaled
	// either way); <= 0 means 2 seconds.
	DrainGrace time.Duration
	// Version pins the sweep cache/journal version; empty selects
	// sweep.CodeVersion().
	Version string
	// Log, when non-nil, receives structured JSON log lines (one object per
	// line: ts, level, msg, then fields — request and campaign ids ride
	// every relevant line). Lifecycle messages keep their stable substrings
	// ("resumed campaign <id>", "drained:"), which is what the chaos gate
	// greps.
	Log io.Writer
	// LogLevel is the minimum level written to Log: "debug", "info"
	// (default), "warn" or "error". Access-log lines for health and metrics
	// probes log at debug.
	LogLevel string

	// Worker configures the supervised worker every campaign runs in, with
	// restarts, heartbeats, resource ceilings and a crash-loop breaker.
	// Worker.Cmd names the worker binary: each campaign is dispatched to a
	// child process running it against the shared cache dir. Empty Cmd runs
	// the same worker protocol in memory, on a goroutine of the daemon (how
	// tests and embedders run).
	Worker WorkerOptions

	// StoreFault, when non-nil, intercepts every atomic store write (chaos /
	// test hook — see store.WriteFault and chaos.StoreFaults).
	StoreFault cas.WriteFault

	// Build converts a parsed spec into the runnable campaign. Nil selects
	// the production path, campaigns.Spec.Campaign. It feeds admission (the
	// trial count, spec validation) and the in-memory worker transport;
	// tests substitute synthetic trial bodies while keeping the whole
	// admission, queueing, worker protocol, persistence and resume machinery
	// real. A subprocess worker builds its own campaign (worker test
	// binaries substitute their own BuildFunc).
	Build func(*campaigns.Spec) (*sweep.Campaign, error)
	// Observe, when non-nil, is called on every campaign state transition
	// (test hook; called with the server lock released).
	Observe func(id, state string)
}

// WorkerOptions configures campaign execution: the worker transport and the
// supervisor's containment policy (see internal/simd/worker).
type WorkerOptions struct {
	// Cmd is the worker argv; element 0 is the binary. cmd/simd passes its
	// own executable plus the hidden -worker flag. Empty selects the
	// in-memory transport, where the RSS ceiling and SpawnHook (which sees
	// pid 0) have no process to act on.
	Cmd []string
	// Env is the worker environment; nil inherits the daemon's.
	Env []string
	// RSSLimit, when > 0, SIGKILLs a worker whose resident set exceeds this
	// many bytes.
	RSSLimit int64
	// Deadline, when > 0, bounds a campaign's total wall time across worker
	// restarts; exceeding it is a terminal failure.
	Deadline time.Duration
	// HeartbeatTimeout is the supervisor's silence tolerance before it
	// declares a worker wedged (journal mtime gets a second opinion first);
	// <= 0 means 10s.
	HeartbeatTimeout time.Duration
	// CrashLoopK trips the circuit breaker after K consecutive worker deaths
	// with no progress; <= 0 means 3.
	CrashLoopK int
	// BackoffBase and BackoffMax shape the deterministic restart delay
	// min(base·2ⁱ, max); zero values mean 50ms and 2s.
	BackoffBase, BackoffMax time.Duration
	// SpawnHook, when non-nil, is called with the campaign name and each
	// incarnation's attempt index and pid, immediately after spawn — the
	// chaos WorkerKiller arms here.
	SpawnHook func(campaign string, attempt, pid int)
}

// MaxSpecBytes bounds a submitted spec body. The stock specs are well under
// a kilobyte; a megabyte leaves room for generated trial matrices while
// keeping a flood of maximal bodies cheap to refuse.
const MaxSpecBytes = 1 << 20

// SpecID derives a campaign's content-addressed identity from its raw spec
// JSON. The blob is parsed and re-marshaled first, so identity attaches to
// the canonical parameter set, not to formatting: two clients submitting the
// same spec with different whitespace (or a lost-response retry of a
// previous submit) converge on the same campaign. The parsed spec is
// returned so admission does not decode twice.
func SpecID(raw []byte) (string, *campaigns.Spec, error) {
	spec, err := campaigns.ParseSpec(raw)
	if err != nil {
		return "", nil, err
	}
	canon, err := json.Marshal(spec)
	if err != nil {
		return "", nil, err
	}
	h := sha256.New()
	fmt.Fprintf(h, "simd-campaign-v1\x00")
	h.Write(canon)
	return hex.EncodeToString(h.Sum(nil))[:16], spec, nil
}

// Status is the wire form of one campaign's state, returned by submit and
// status requests and persisted (minus Deduped) as the campaign's
// status.json.
type Status struct {
	ID     string `json:"id"`
	Client string `json:"client,omitempty"`
	State  string `json:"state"`
	// Total is the campaign's trial count; Executed/Cached/Failed partition
	// the merged trials once the campaign reaches a terminal state
	// (Executed counts this incarnation's executions — a resumed campaign
	// reports the balance as Cached, which is how zero re-execution is
	// asserted from outside).
	Total    int `json:"total"`
	Executed int `json:"executed"`
	Cached   int `json:"cached"`
	Failed   int `json:"failed"`
	// Err carries the terminal error of a failed campaign.
	Err string `json:"err,omitempty"`
	// Deduped marks a submit response that matched an existing campaign
	// instead of admitting a new one.
	Deduped bool `json:"deduped,omitempty"`
	// Restarts counts worker deaths this campaign has survived; LastExit
	// names the most recent death's cause ("signal: killed", "exit status
	// 2", "rss_limit", "heartbeat_stall").
	Restarts int    `json:"restarts,omitempty"`
	LastExit string `json:"last_exit,omitempty"`
	// Breaker is the crash-loop circuit breaker's position: "closed" while
	// the campaign runs, "open" once it trips (state crash_loop).
	Breaker string `json:"breaker,omitempty"`
}

// Terminal reports whether the state is final for this daemon incarnation.
func (s *Status) Terminal() bool {
	switch s.State {
	case StateDone, StateFailed, StateCanceled, StateCrashLoop:
		return true
	}
	return false
}

// ErrorResponse is the typed JSON error body for every non-2xx response.
type ErrorResponse struct {
	// Error is one of the Reason* constants.
	Error string `json:"error"`
	// Detail is human-readable context.
	Detail string `json:"detail,omitempty"`
	// RetryAfterMS hints when a rejected submission is worth retrying.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// Stats is the /v1/stats payload: the ops-side view of the daemon, flat
// enough for shell gates to grep. All values are process-lifetime (they
// reset on restart).
type Stats struct {
	Draining   bool           `json:"draining"`
	QueueDepth int            `json:"queue_depth"`
	Campaigns  map[string]int `json:"campaigns"` // state -> count, every state key present
	Admitted   int64          `json:"admitted"`
	Deduped    int64          `json:"deduped"`
	Resumed    int64          `json:"resumed"`
	Rejected   RejectStats    `json:"rejected"`
	Trials     TrialStats     `json:"trials"`
	// CacheHitRate is Trials.Cached / (Trials.Executed + Trials.Cached); 0
	// before any trial completes.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// SubmitToResultMS summarizes admitted-to-terminal campaign latency.
	SubmitToResultMS LatencyStats `json:"submit_to_result_ms"`
}

// RejectStats counts admission rejections by typed reason.
type RejectStats struct {
	QueueFull     int64 `json:"queue_full"`
	ClientBacklog int64 `json:"client_backlog"`
	Draining      int64 `json:"draining"`
	NoSpace       int64 `json:"no_space"`
}

// Total sums every rejection reason.
func (r RejectStats) Total() int64 {
	return r.QueueFull + r.ClientBacklog + r.Draining + r.NoSpace
}

// TrialStats aggregates trial outcomes across campaigns.
type TrialStats struct {
	Executed int64 `json:"executed"`
	Cached   int64 `json:"cached"`
	Failed   int64 `json:"failed"`
}

// LatencyStats summarizes a latency histogram.
type LatencyStats struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}
