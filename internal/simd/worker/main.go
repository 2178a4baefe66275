package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"mkos/internal/simd/store"
	"mkos/internal/sweep"
	"mkos/internal/sweep/campaigns"
)

// BuildFunc converts a parsed spec into the runnable campaign. The nil
// default is the production path, campaigns.Spec.Campaign; test binaries
// acting as workers, and the daemon's in-memory transport (which passes simd
// Options.Build), substitute synthetic trial bodies.
type BuildFunc func(*campaigns.Spec) (*sweep.Campaign, error)

// Main is the worker-process entry point: cmd/simd calls it (and exits with
// its return value) when invoked with the hidden -worker flag, and test
// binaries call it when re-executed as workers. SIGTERM and SIGINT cancel the
// campaign cooperatively: finished trials are already journaled, the done
// event reports "interrupted", and the next incarnation resumes with zero
// re-executed trials. run implements the protocol.
func Main(stdin io.Reader, stdout, stderr io.Writer, build BuildFunc) int {
	//simlint:allow ctxflow — worker-process root context: born at exec, canceled by SIGTERM/SIGINT; there is no caller to inherit from
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	return run(ctx, os.Getpid(), stdin, stdout, stderr, build)
}

// run is the worker protocol loop, shared by both transports: the subprocess
// reaches it through Main, the in-memory transport on a goroutine. It reads
// one Request from stdin, runs the campaign through sweep.RunContext against
// the shared cache dir, streams Events on stdout (hello carries pid) and
// returns the exit code: 0 after any properly reported terminal state (done,
// interrupted, failed — the outcome is in the done event, not the exit code),
// 2 on a protocol error before the campaign could start. Canceling ctx
// interrupts the campaign.
func run(ctx context.Context, pid int, stdin io.Reader, stdout, stderr io.Writer, build BuildFunc) int {
	if build == nil {
		build = func(s *campaigns.Spec) (*sweep.Campaign, error) { return s.Campaign() }
	}
	var req Request
	if err := json.NewDecoder(stdin).Decode(&req); err != nil {
		fmt.Fprintf(stderr, "worker: decoding request: %v\n", err)
		return 2
	}

	emit := newEmitter(stdout)
	emit.send(Event{Ev: EvHello, PID: pid})

	// The liveness ticker beats independently of trial completions, so a
	// long-running trial does not read as a wedged worker; the per-trial
	// Heartbeat hook beats on every retired trial as well.
	hb := req.HeartbeatMS
	if hb <= 0 {
		hb = 250
	}
	tick := time.NewTicker(time.Duration(hb) * time.Millisecond)
	defer tick.Stop()
	tickDone := make(chan struct{})
	defer close(tickDone)
	go func() {
		for {
			select {
			case <-tick.C:
				emit.send(Event{Ev: EvHB})
			case <-tickDone:
				return
			}
		}
	}()

	spec, err := campaigns.ParseSpec(req.Spec)
	if err != nil {
		emit.done(Event{Ev: EvDone, State: StateFailed, Err: err.Error()})
		return 0
	}
	built, err := build(spec)
	if err != nil {
		emit.done(Event{Ev: EvDone, State: StateFailed, Err: err.Error()})
		return 0
	}

	o, err := sweep.RunContext(ctx, built, sweep.Options{
		Workers:      req.Workers,
		CacheDir:     req.CacheDir,
		Version:      req.Version,
		TrialTimeout: time.Duration(req.TrialTimeoutMS) * time.Millisecond,
		CancelGrace:  time.Duration(req.CancelGraceMS) * time.Millisecond,
		Heartbeat:    func() { emit.send(Event{Ev: EvHB}) },
		OnTrial: func(ev sweep.TrialEvent) {
			emit.send(Event{
				Ev: EvTrial, Key: ev.Key, Err: ev.Err, Cached: ev.Cached,
				WallMS: float64(ev.Wall) / float64(time.Millisecond),
				Done:   ev.Done, Total: ev.Total,
			})
		},
	})

	ev := Event{Ev: EvDone}
	if o != nil {
		ev.Summary = &Summary{Executed: o.Executed, Cached: o.Cached, Failed: o.Failed, Canceled: o.Canceled}
		ev.Ops = o.Ops.Snapshot()
	}
	switch {
	case err == nil:
		if werr := writeArtifacts(req.ArtifactDir, o); werr != nil {
			ev.State, ev.Err = StateFailed, fmt.Sprintf("writing artifacts: %v", werr)
			break
		}
		ev.State = StateDone
	case isInterrupted(err):
		ev.State = StateInterrupted
	case isJournalBusy(err):
		ev.State, ev.Reason, ev.Err = StateFailed, ReasonJournalBusy, err.Error()
	default:
		ev.State, ev.Err = StateFailed, err.Error()
	}
	emit.done(ev)
	return 0
}

func isInterrupted(err error) bool { return errors.Is(err, sweep.ErrInterrupted) }
func isJournalBusy(err error) bool { return errors.Is(err, sweep.ErrJournalBusy) }

// writeArtifacts renders and lands the deterministic campaign artifacts
// through the same renderers cmd/sweep uses, so a supervised campaign
// byte-compares against a CLI run. results.json is written before
// metrics.txt; both carry sha256 sidecars.
func writeArtifacts(dir string, o *sweep.Outcome) error {
	if dir == "" {
		return nil
	}
	var results, metrics bytes.Buffer
	if err := sweep.WriteResults(&results, o); err != nil {
		return err
	}
	if _, err := o.Registry.WriteTo(&metrics); err != nil {
		return err
	}
	d := &store.Dir{Root: dir}
	if err := d.WriteArtifact(filepath.Join(dir, "results.json"), results.Bytes()); err != nil {
		return err
	}
	return d.WriteArtifact(filepath.Join(dir, "metrics.txt"), metrics.Bytes())
}

// emitter serializes protocol events onto the stdout pipe: hb ticks, trial
// events (already serialized under the sweep emit lock) and the final done
// event race here, and a done event must be the last line the supervisor
// ever reads.
type emitter struct {
	mu     sync.Mutex
	enc    *json.Encoder
	closed bool
}

func newEmitter(w io.Writer) *emitter { return &emitter{enc: json.NewEncoder(w)} }

func (e *emitter) send(ev Event) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.enc.Encode(ev) // a broken pipe means the supervisor is gone; nothing to report to
}

func (e *emitter) done(ev Event) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	e.enc.Encode(ev)
}
