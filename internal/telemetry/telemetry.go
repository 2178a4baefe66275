// Package telemetry is the unified observability substrate of the simulator:
// a metrics registry (counters, gauges, fixed-bucket histograms) with a
// byte-deterministic text dump, a sim-time trace recorder exporting Chrome
// trace_event JSON (opens in Perfetto / chrome://tracing), and an engine
// profiler for simulator hot spots.
//
// The paper's methodology is exactly this kind of whole-stack observability:
// Sec. 4.2.1 attributes noise to its source with ftrace and execution-time
// profiling, and Eqs. 1-2 quantify what was observed. The instrumented
// subsystems (sim, mckernel, linux, cluster, fault, bsp, noise) all publish
// into one shared Sink so cross-layer questions — "how many syscall
// offloads, page faults and IKC round trips did this job cost, and where did
// the wall time go?" — have one answer surface.
//
// Determinism contract: everything recorded into the Registry and the
// Recorder derives from simulated time and seeded randomness only. Host
// wall-clock measurements exist solely in the Profiler report. Two runs with
// the same seed produce byte-identical metrics dumps and trace JSON
// (enforced by the determinism regression test).
package telemetry

import (
	"sync"
	"sync/atomic"

	"mkos/internal/sim"
)

// Sink bundles the three telemetry surfaces. Model code holds the sink of
// the operation it serves and publishes through its methods (C, G, H, Span,
// Instant, TraceEnabled); entry points resolve that sink once with Default
// and pass it down. Experiments that need isolation swap the process-wide
// sink with SetDefault or Reset, or scope one to a goroutine with RunWith.
//
// A nil *Sink publishes into Default(), so a zero-valued model object still
// reaches the sink of the scope it runs in; the lookup that costs is then
// paid per call, which is what holding a resolved sink avoids.
type Sink struct {
	reg  *Registry
	rec  *Recorder
	prof *Profiler
}

// NewSink builds an empty sink with tracing disabled.
func NewSink() *Sink {
	reg := NewRegistry()
	return &Sink{reg: reg, rec: NewRecorder(0), prof: NewProfiler(reg)}
}

// Registry returns the sink's metrics registry.
func (s *Sink) Registry() *Registry { return s.reg }

// Recorder returns the sink's trace recorder.
func (s *Sink) Recorder() *Recorder { return s.rec }

// Profiler returns the sink's engine profiler.
func (s *Sink) Profiler() *Profiler { return s.prof }

// or resolves a nil sink to the calling goroutine's.
func (s *Sink) or() *Sink {
	if s == nil {
		return Default()
	}
	return s
}

// C returns the named counter from the sink's registry.
func (s *Sink) C(name string) *Counter { return s.or().reg.Counter(name) }

// G returns the named gauge from the sink's registry.
func (s *Sink) G(name string) *Gauge { return s.or().reg.Gauge(name) }

// H returns the named histogram from the sink's registry.
func (s *Sink) H(name string, bounds []float64) *Histogram { return s.or().reg.Histogram(name, bounds) }

// Span records a complete span on the sink's recorder.
func (s *Sink) Span(cat, name string, node, cpu int, start sim.Time, dur sim.Duration, args ...Arg) {
	s.or().rec.Span(cat, name, node, cpu, start, dur, args...)
}

// Instant records a point event on the sink's recorder.
func (s *Sink) Instant(cat, name string, node, cpu int, at sim.Time, args ...Arg) {
	s.or().rec.Instant(cat, name, node, cpu, at, args...)
}

// TraceEnabled reports whether the sink's recorder is capturing; hot paths
// use it to skip building span arguments entirely.
func (s *Sink) TraceEnabled() bool { return s.or().rec.Enabled() }

// AttachEngine wires the sink's profiler into an engine's dispatch loop.
func (s *Sink) AttachEngine(e *sim.Engine) { s.or().prof.Attach(e) }

var (
	defaultMu sync.RWMutex
	std       = NewSink()

	// Goroutine-local sink overrides, installed by RunWith. activeLocals
	// gates the gid lookup so Default() costs one atomic load extra when no
	// sweep is running.
	localMu      sync.Mutex
	localSinks   = map[uint64]*Sink{}
	activeLocals atomic.Int64
)

// Default returns the sink for the calling goroutine: the one installed by a
// surrounding RunWith if there is one, the process-wide sink otherwise.
// Inside a RunWith it pays the goroutine lookup (see gid), so callers
// resolve it once per operation and hold the result.
func Default() *Sink {
	if activeLocals.Load() != 0 {
		id := gid()
		localMu.Lock()
		s := localSinks[id]
		localMu.Unlock()
		if s != nil {
			return s
		}
	}
	defaultMu.RLock()
	defer defaultMu.RUnlock()
	return std
}

// RunWith runs fn with s installed as the calling goroutine's sink: Default
// called from fn on this goroutine returns s instead of the process-wide
// sink. This is what lets a parallel sweep give each simulation trial an
// isolated registry and recorder: the public operations a trial calls
// resolve their sink once through Default and carry it explicitly from
// there, and per-trial telemetry is merged in a deterministic order
// afterwards.
//
// The override covers only the calling goroutine; goroutines spawned from fn
// see the process-wide sink (the simulator itself never spawns any — each
// trial runs its whole event loop on one goroutine). Calls nest: the previous
// override is restored when fn returns. A nil s installs a fresh empty sink.
func RunWith(s *Sink, fn func()) {
	if s == nil {
		s = NewSink()
	}
	id := gid()
	localMu.Lock()
	prev, nested := localSinks[id]
	localSinks[id] = s
	localMu.Unlock()
	activeLocals.Add(1)
	defer func() {
		localMu.Lock()
		if nested {
			localSinks[id] = prev
		} else {
			delete(localSinks, id)
		}
		localMu.Unlock()
		activeLocals.Add(-1)
	}()
	fn()
}

// SetDefault replaces the process-wide sink and returns the previous one.
func SetDefault(s *Sink) *Sink {
	if s == nil {
		s = NewSink()
	}
	defaultMu.Lock()
	old := std
	std = s
	defaultMu.Unlock()
	return old
}

// Reset installs a fresh empty sink, returning the previous one. Tests and
// repeated in-process experiment runs use it to start from zero.
func Reset() *Sink { return SetDefault(NewSink()) }

// The package-level helpers publish into Default(). Each call pays the
// goroutine lookup, so they belong to entry points, commands and tests;
// model code publishes through the *Sink it holds.

// C returns the named counter from the default sink.
func C(name string) *Counter { return Default().C(name) }

// G returns the named gauge from the default sink.
func G(name string) *Gauge { return Default().G(name) }

// H returns the named histogram from the default sink.
func H(name string, bounds []float64) *Histogram { return Default().H(name, bounds) }

// Span records a complete span on the default sink's recorder.
func Span(cat, name string, node, cpu int, start sim.Time, dur sim.Duration, args ...Arg) {
	Default().Span(cat, name, node, cpu, start, dur, args...)
}

// Instant records a point event on the default sink's recorder.
func Instant(cat, name string, node, cpu int, at sim.Time, args ...Arg) {
	Default().Instant(cat, name, node, cpu, at, args...)
}

// TraceEnabled reports whether the default recorder is capturing.
func TraceEnabled() bool { return Default().TraceEnabled() }

// AttachEngine wires the default profiler into an engine.
func AttachEngine(e *sim.Engine) { Default().AttachEngine(e) }
