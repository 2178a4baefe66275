package worker

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"mkos/internal/telemetry"
)

// Supervisor runs one campaign to a terminal state through a sequence of
// worker incarnations: spawn, feed the Request, watch the event stream, and
// on worker death back off and respawn — the journal makes every respawn a
// resume. It enforces the containment policy (heartbeat timeout, RSS
// ceiling, wall deadline) by SIGKILLing the worker, and the crash-loop
// circuit breaker by giving up after CrashLoopK consecutive deaths with no
// progress.
type Supervisor struct {
	// Cmd is the worker argv (Cmd[0] is the binary — typically the daemon's
	// own executable with the hidden -worker flag). Empty selects the
	// in-memory transport: each incarnation runs the worker protocol on a
	// goroutine of this process, building campaigns with Build.
	Cmd []string
	// Env is the worker's environment; nil inherits the daemon's.
	Env []string
	// Build is the in-memory transport's campaign builder; nil builds the
	// production campaign. A subprocess worker builds its own.
	Build BuildFunc

	// RSSLimit, when > 0, SIGKILLs a worker whose resident set exceeds it
	// (bytes). Polled from /proc/<pid>/statm; a no-op on platforms without
	// it and for the in-memory transport.
	RSSLimit int64
	// Deadline, when > 0, bounds the whole campaign's wall time across all
	// incarnations; exceeding it is a terminal failure, not a restart.
	Deadline time.Duration
	// HeartbeatTimeout is how long the supervisor tolerates silence on the
	// event pipe before consulting the journal's mtime and, if that is stale
	// too, declaring the worker wedged. <= 0 means 10s.
	HeartbeatTimeout time.Duration
	// KillGrace is how long a SIGTERMed worker gets to report a terminal
	// event before SIGKILL. <= 0 means 2s.
	KillGrace time.Duration

	// CrashLoopK trips the breaker after K consecutive deaths with no
	// progress (no non-cached trial event that incarnation). <= 0 means 3.
	CrashLoopK int
	// BackoffBase and BackoffMax shape the deterministic restart delay (see
	// Backoff).
	BackoffBase, BackoffMax time.Duration

	// JournalPath is the campaign's sweep journal; its mtime is the
	// second-opinion liveness signal when the pipe goes quiet.
	JournalPath string

	// OnSpawn is called with each incarnation's attempt index and pid (0 in
	// memory), immediately after start — the chaos WorkerKiller arms here.
	OnSpawn func(attempt, pid int)
	// OnTrial is called for every trial event, in journal order.
	OnTrial func(Event)
	// OnExit is called after each worker death (not for a clean done exit)
	// with the attempt index and the exit cause.
	OnExit func(attempt int, cause string)
	// Logf receives supervisor diagnostics and the worker's re-logged stderr
	// lines; nil discards them.
	Logf func(format string, args ...any)
}

// Result is the campaign's terminal outcome as the supervisor saw it.
type Result struct {
	// State is one of the worker terminal states, or StateCrashLoop.
	State  string
	Reason string
	// Summary and Ops come from the final done event, when there was one.
	Summary Summary
	Ops     *telemetry.Snapshot
	Err     string
	// Restarts counts worker deaths across the whole run; LastExit names the
	// most recent death's cause ("signal: killed", "exit status 2",
	// "rss_limit", "heartbeat_stall", "deadline").
	Restarts int
	LastExit string
}

// outcome kinds of a single worker incarnation.
const (
	onceDied     = iota // pipe EOF without a done event
	onceDone            // worker reported a terminal done event
	onceCanceled        // ctx canceled; worker drained or was killed
	onceDeadline        // campaign wall deadline hit
)

type onceOut struct {
	kind       int
	done       *Event // terminal event, when the worker produced one
	cause      string // death cause for onceDied / onceDeadline
	progressed bool   // saw a non-cached trial this incarnation
}

// Run drives the campaign to a terminal Result. The returned error is
// reserved for supervisor-level failures (unable to spawn at all); every
// worker outcome, including crash loops, is a Result.
func (s *Supervisor) Run(ctx context.Context, req Request) (*Result, error) {
	k := s.CrashLoopK
	if k <= 0 {
		k = 3
	}
	logf := s.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// The deadline spans all incarnations: restarts do not buy time.
	var deadlineCh <-chan time.Time
	if s.Deadline > 0 {
		dt := time.NewTimer(s.Deadline)
		defer dt.Stop()
		deadlineCh = dt.C
	}

	streak, restarts := 0, 0
	lastExit := ""
	for attempt := 0; ; attempt++ {
		out, err := s.runOnce(ctx, req, attempt, deadlineCh, logf)
		if err != nil {
			return nil, err
		}
		switch out.kind {
		case onceDone:
			res := resultFromEvent(out.done)
			res.Restarts, res.LastExit = restarts, lastExit
			return res, nil
		case onceCanceled:
			res := &Result{State: StateInterrupted}
			if out.done != nil { // the worker drained and reported for itself
				res = resultFromEvent(out.done)
			}
			res.Restarts, res.LastExit = restarts, lastExit
			return res, nil
		case onceDeadline:
			return &Result{
				State:    StateFailed,
				Err:      fmt.Sprintf("campaign deadline (%s) exceeded", s.Deadline),
				Restarts: restarts,
				LastExit: "deadline",
			}, nil
		case onceDied:
			restarts++
			lastExit = out.cause
			if out.progressed {
				streak = 1 // progress forgives the past, not this death
			} else {
				streak++
			}
			if s.OnExit != nil {
				s.OnExit(attempt, out.cause)
			}
			if streak >= k {
				return &Result{
					State:    StateCrashLoop,
					Err:      fmt.Sprintf("crash loop: %d consecutive worker deaths with no progress (last: %s)", streak, out.cause),
					Restarts: restarts,
					LastExit: out.cause,
				}, nil
			}
			delay := Backoff(streak-1, s.BackoffBase, s.BackoffMax)
			logf("worker died (%s); restarting in %s (death %d, streak %d/%d)", out.cause, delay, restarts, streak, k)
			bt := time.NewTimer(delay)
			select {
			case <-bt.C:
			case <-ctx.Done():
				bt.Stop()
				return &Result{State: StateInterrupted, Restarts: restarts, LastExit: lastExit}, nil
			}
		}
	}
}

// runOnce runs a single worker incarnation to pipe EOF or a supervisor
// intervention.
func (s *Supervisor) runOnce(ctx context.Context, req Request, attempt int, deadlineCh <-chan time.Time, logf func(string, ...any)) (*onceOut, error) {
	hbTO := s.HeartbeatTimeout
	if hbTO <= 0 {
		hbTO = 10 * time.Second
	}
	grace := s.KillGrace
	if grace <= 0 {
		grace = 2 * time.Second
	}

	inc, err := s.start()
	if err != nil {
		return nil, err
	}
	pid := inc.pid
	if s.OnSpawn != nil {
		s.OnSpawn(attempt, pid)
	}

	go func() { // a worker that dies before reading makes this a broken pipe; EOF reports it
		enc := json.NewEncoder(inc.stdin)
		_ = enc.Encode(req)
		inc.stdin.Close()
	}()

	events := make(chan Event, 64)
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		defer close(events)
		sc := bufio.NewScanner(inc.stdout)
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		for sc.Scan() {
			var ev Event
			if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Ev != "" {
				events <- ev
			}
		}
	}()
	go func() {
		defer readers.Done()
		sc := bufio.NewScanner(inc.stderr)
		for sc.Scan() {
			logf("worker[%d]: %s", pid, sc.Text())
		}
	}()

	// reap drains the pipes and collects the exit status; wait must not run
	// before the pipe readers finish.
	reap := func() string {
		for range events {
		}
		readers.Wait()
		if werr := inc.wait(); werr != nil {
			return werr.Error()
		}
		return "exit status 0"
	}

	hbTimer := time.NewTimer(hbTO)
	defer hbTimer.Stop()
	resetHB := func() {
		if !hbTimer.Stop() {
			select {
			case <-hbTimer.C:
			default:
			}
		}
		hbTimer.Reset(hbTO)
	}
	var lastJournal time.Time
	if st, serr := os.Stat(s.JournalPath); serr == nil {
		lastJournal = st.ModTime()
	}

	var rssCh <-chan time.Time
	if s.RSSLimit > 0 && pid > 0 {
		rt := time.NewTicker(100 * time.Millisecond)
		defer rt.Stop()
		rssCh = rt.C
	}

	out := &onceOut{}
	for {
		select {
		case ev, ok := <-events:
			if !ok { // EOF without a done event: the worker died
				out.kind, out.cause = onceDied, reap()
				return out, nil
			}
			switch ev.Ev {
			case EvHello, EvHB:
				resetHB()
			case EvTrial:
				resetHB()
				if !ev.Cached {
					out.progressed = true
				}
				if s.OnTrial != nil {
					s.OnTrial(ev)
				}
			case EvDone:
				done := ev
				out.kind, out.done = onceDone, &done
				out.cause = reap()
				return out, nil
			}
		case <-ctx.Done():
			// Cooperative cancel: SIGTERM, give the worker KillGrace to
			// journal in-flight trials and report, then SIGKILL.
			inc.terminate()
			gt := time.NewTimer(grace)
			defer gt.Stop()
			for {
				select {
				case ev, ok := <-events:
					if !ok {
						reap()
						out.kind = onceCanceled
						return out, nil
					}
					if ev.Ev == EvTrial {
						if !ev.Cached {
							out.progressed = true
						}
						if s.OnTrial != nil {
							s.OnTrial(ev)
						}
					}
					if ev.Ev == EvDone {
						done := ev
						out.kind, out.done = onceCanceled, &done
						reap()
						return out, nil
					}
				case <-gt.C:
					inc.kill()
					reap()
					out.kind = onceCanceled
					return out, nil
				}
			}
		case <-deadlineCh:
			inc.kill()
			reap()
			out.kind, out.cause = onceDeadline, "deadline"
			return out, nil
		case <-rssCh:
			if rss, ok := rssBytes(pid); ok && rss > s.RSSLimit {
				logf("worker[%d] rss %d bytes exceeds limit %d; killing", pid, rss, s.RSSLimit)
				inc.kill()
				reap()
				out.kind, out.cause = onceDied, "rss_limit"
				return out, nil
			}
		case <-hbTimer.C:
			// Quiet pipe: the journal's mtime gets the second opinion — a
			// worker grinding through a slow trial still appends on retire.
			if st, serr := os.Stat(s.JournalPath); serr == nil && st.ModTime().After(lastJournal) {
				lastJournal = st.ModTime()
				hbTimer.Reset(hbTO)
				continue
			}
			logf("worker[%d] heartbeat stalled for %s; killing", pid, hbTO)
			inc.kill()
			reap()
			out.kind, out.cause = onceDied, "heartbeat_stall"
			return out, nil
		}
	}
}

func resultFromEvent(ev *Event) *Result {
	r := &Result{State: ev.State, Reason: ev.Reason, Err: ev.Err, Ops: ev.Ops}
	if ev.Summary != nil {
		r.Summary = *ev.Summary
	}
	return r
}
