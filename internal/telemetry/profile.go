package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"mkos/internal/sim"
)

// Profiler aggregates sim.Engine dispatch statistics per event label: how
// many times each Event.Name fired, how much host wall time its handlers
// consumed, and the queue-depth high-water mark observed at dispatch. It is
// the tool for finding simulator hot spots ahead of performance work.
//
// Wall times are host-clock measurements and therefore NOT deterministic;
// they live only in the profiler's own report, never in the metrics Registry,
// which must stay byte-identical across same-seed runs. The deterministic
// side (events fired, queue high-water) is mirrored into the Registry.
type Profiler struct {
	mu       sync.Mutex
	byLabel  map[string]*HandlerStats
	depthHWM int
	fired    int64

	// Deterministic mirrors (may be nil for a standalone profiler).
	firedCounter *Counter
	hwmGauge     *Gauge
}

// HandlerStats is the per-label aggregate.
type HandlerStats struct {
	Label   string
	Count   int64
	Wall    time.Duration // total host time spent in handlers
	MaxWall time.Duration
}

// NewProfiler returns an empty profiler. reg may be nil; when set, the
// deterministic aggregates are mirrored into it as sim.events_fired and
// sim.queue_depth_hwm.
func NewProfiler(reg *Registry) *Profiler {
	p := &Profiler{byLabel: make(map[string]*HandlerStats)}
	if reg != nil {
		p.firedCounter = reg.Counter("sim.events_fired")
		p.hwmGauge = reg.Gauge("sim.queue_depth_hwm")
	}
	return p
}

// ObserveEvent implements sim.Observer.
func (p *Profiler) ObserveEvent(label string, at sim.Time, wall sim.Duration, pending int) {
	if label == "" {
		label = "(unnamed)"
	}
	p.mu.Lock()
	s, ok := p.byLabel[label]
	if !ok {
		s = &HandlerStats{Label: label}
		p.byLabel[label] = s
	}
	s.Count++
	s.Wall += wall
	if wall > s.MaxWall {
		s.MaxWall = wall
	}
	if pending > p.depthHWM {
		p.depthHWM = pending
	}
	p.fired++
	p.mu.Unlock()
	if p.firedCounter != nil {
		p.firedCounter.Inc()
	}
	if p.hwmGauge != nil {
		p.hwmGauge.SetMax(float64(pending))
	}
}

// Attach registers the profiler as the engine's observer.
func (p *Profiler) Attach(e *sim.Engine) { e.SetObserver(p) }

// MergeFrom adds o's per-label aggregates, event count and queue high-water
// into p. The deterministic mirrors are left alone: registries merge
// through snapshots, so counting here as well would count twice.
func (p *Profiler) MergeFrom(o *Profiler) {
	if o == nil || o == p {
		return
	}
	stats, fired, hwm := o.Stats(), o.Fired(), o.QueueHighWater()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range stats {
		d := p.byLabel[s.Label]
		if d == nil {
			d = &HandlerStats{Label: s.Label}
			p.byLabel[s.Label] = d
		}
		d.Count += s.Count
		d.Wall += s.Wall
		d.MaxWall = max(d.MaxWall, s.MaxWall)
	}
	p.fired += fired
	p.depthHWM = max(p.depthHWM, hwm)
}

// Fired returns the total events observed.
func (p *Profiler) Fired() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fired
}

// QueueHighWater returns the largest pending-queue depth seen at dispatch.
func (p *Profiler) QueueHighWater() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.depthHWM
}

// Stats returns the per-label aggregates sorted by total wall time
// descending (ties by label), the order a hot-spot hunt reads them in.
func (p *Profiler) Stats() []HandlerStats {
	p.mu.Lock()
	out := make([]HandlerStats, 0, len(p.byLabel))
	for _, s := range p.byLabel {
		out = append(out, *s)
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Wall != out[j].Wall {
			return out[i].Wall > out[j].Wall
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// WriteTo renders the hot-spot report.
func (p *Profiler) WriteTo(w io.Writer) (int64, error) {
	var written int64
	n, err := fmt.Fprintf(w, "# engine profile: %d events, queue high-water %d\n%-32s %10s %14s %14s\n",
		p.Fired(), p.QueueHighWater(), "label", "count", "total wall", "max wall")
	written += int64(n)
	if err != nil {
		return written, err
	}
	for _, s := range p.Stats() {
		n, err := fmt.Fprintf(w, "%-32s %10d %14v %14v\n", s.Label, s.Count, s.Wall, s.MaxWall)
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}
