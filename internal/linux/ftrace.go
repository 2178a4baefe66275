package linux

import (
	"fmt"
	"sort"
	"time"

	"mkos/internal/kernel"
	"mkos/internal/sim"
	"mkos/internal/telemetry"
)

// Tracer is the model's ftrace: it records which task ran on which CPU and
// for how long, so interference on application cores can be attributed to
// its source — the methodology of Sec. 4.2.1 ("for identifying kernel mode
// tasks that interfere with application code we utilize execution time
// profiling and ftrace"). The blk-mq discovery in the paper (completion
// workers appearing on app cores despite kworker binding) falls out of
// exactly this kind of per-task trace.
type Tracer struct {
	enabled bool
	events  []TraceEvent
	limit   int
	dropped uint64
	sink    *telemetry.Sink // receives the forwarded events and counters
	// Node keys the events this tracer forwards to the shared telemetry
	// recorder; zero for single-node profiles.
	Node int
}

// TraceEvent is one scheduling event in the trace buffer.
type TraceEvent struct {
	At   sim.Time
	CPU  int
	Task string
	Kind kernel.TaskKind
	Len  time.Duration
}

// NewTracer returns a tracer with the given ring-buffer capacity. It
// publishes into the sink of the scope it is built in.
func NewTracer(limit int) *Tracer {
	return newTracer(limit, telemetry.Default())
}

func newTracer(limit int, sink *telemetry.Sink) *Tracer {
	if limit <= 0 {
		limit = 1 << 16
	}
	return &Tracer{limit: limit, sink: sink}
}

// Enable starts recording.
func (t *Tracer) Enable() { t.enabled = true }

// Disable stops recording; the buffer is retained for analysis.
func (t *Tracer) Disable() { t.enabled = false }

// Enabled reports recording state.
func (t *Tracer) Enabled() bool { return t.enabled }

// Record appends one event, dropping the oldest when the buffer is full
// (ftrace ring-buffer semantics). Drops are counted — never silent — and
// surfaced both via Dropped and the shared linux.ftrace.dropped counter, so
// a truncated attribution is visible in the metrics dump. Every recorded
// event is also forwarded to the shared telemetry recorder, putting Linux
// scheduling noise on the same timeline as the rest of the stack.
func (t *Tracer) Record(at sim.Time, cpu int, task string, kind kernel.TaskKind, d time.Duration) {
	if !t.enabled {
		return
	}
	if len(t.events) >= t.limit {
		copy(t.events, t.events[1:])
		t.events = t.events[:len(t.events)-1]
		t.dropped++
		t.sink.C("linux.ftrace.dropped").Inc()
	}
	t.events = append(t.events, TraceEvent{At: at, CPU: cpu, Task: task, Kind: kind, Len: d})
	t.sink.C("linux.ftrace.events").Inc()
	if t.sink.TraceEnabled() {
		t.sink.Span("linux", task, t.Node, cpu, at, d,
			telemetry.Arg{Key: "kind", Val: kind.String()})
	}
}

// Events returns the recorded events in order.
func (t *Tracer) Events() []TraceEvent { return t.events }

// Dropped returns how many events ring-buffer wraparound discarded.
func (t *Tracer) Dropped() uint64 { return t.dropped }

// Attribution summarizes stolen time by task name.
type Attribution struct {
	Task  string
	Kind  kernel.TaskKind
	Count int
	Total time.Duration
	Max   time.Duration
}

// AttributeOn aggregates the trace for a set of CPUs (typically the
// application cores), sorted by total stolen time descending — the view the
// paper used to find blk-mq workers and PMU IPIs on application cores.
func (t *Tracer) AttributeOn(cpus map[int]bool) []Attribution {
	agg := map[string]*Attribution{}
	for _, ev := range t.events {
		if cpus != nil && !cpus[ev.CPU] {
			continue
		}
		a, ok := agg[ev.Task]
		if !ok {
			a = &Attribution{Task: ev.Task, Kind: ev.Kind}
			agg[ev.Task] = a
		}
		a.Count++
		a.Total += ev.Len
		if ev.Len > a.Max {
			a.Max = ev.Len
		}
	}
	out := make([]Attribution, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Task < out[j].Task
	})
	return out
}

// AttributeProfile runs the kernel's noise profile for the given horizon and
// returns the per-source attribution on application cores — the end-to-end
// "what interferes with my app cores" report of Sec. 4.2.1.
func (k *Kernel) AttributeProfile(horizon time.Duration, seed int64) []Attribution {
	sink := telemetry.Default()
	prof := k.NoiseProfile()
	tl := prof.TimelineTo(prof.Counters(sink), horizon, sim.NewRand(seed))
	tr := newTracer(1<<20, sink)
	tr.Enable()
	appSet := map[int]bool{}
	for _, c := range k.AppCores() {
		appSet[c] = true
		for _, iv := range tl.ForCPU(c) {
			tr.Record(iv.Start, c, iv.Source, kindOf(iv.Source), iv.Len)
		}
	}
	return tr.AttributeOn(appSet)
}

// kindOf maps a noise-source name to the task kind it represents.
func kindOf(source string) kernel.TaskKind {
	switch source {
	case "daemons":
		return kernel.DaemonTask
	case "kworkers":
		return kernel.KworkerTask
	case "blk-mq":
		return kernel.BlkMQTask
	case "sar":
		return kernel.MonitorTask
	default:
		return kernel.KworkerTask
	}
}

// String renders an attribution line the way trace reports are read.
func (a Attribution) String() string {
	return fmt.Sprintf("%-16s %-8s hits=%6d total=%12v max=%10v",
		a.Task, a.Kind, a.Count, a.Total, a.Max)
}
