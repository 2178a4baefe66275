package noise

import (
	"fmt"
	"sort"
	"time"

	"mkos/internal/sim"
	"mkos/internal/telemetry"
)

// Interruption is one episode of stolen CPU time on one core.
type Interruption struct {
	Start  sim.Time
	Len    time.Duration
	CPU    int
	Source string
}

// End returns the instant the interruption finishes.
func (iv Interruption) End() sim.Time { return iv.Start.Add(iv.Len) }

// Targeting selects which cores a source's events land on.
type Targeting int

const (
	// TargetOne lands every event on one fixed core (a bound daemon).
	TargetOne Targeting = iota
	// TargetRoundRobin spreads events across the target cores in turn
	// (irqbalance-style spreading).
	TargetRoundRobin
	// TargetRandom picks a uniformly random target core per event (unbound
	// kworker placement).
	TargetRandom
	// TargetAll hits every target core simultaneously with the same event
	// (broadcast TLBI, global IPI-based PMU reads).
	TargetAll
)

// Source describes one noise generator: when events happen and how long they
// steal the CPU. Interval and length distributions are lognormal around the
// configured means, matching the heavy-tailed FWQ traces in the paper, with
// an optional Pareto tail for the rare extreme events that dominate
// max-noise-length statistics.
type Source struct {
	Name  string
	Cores []int // candidate target cores
	Mode  Targeting

	Every      time.Duration // mean inter-arrival time
	EveryCV    float64       // coefficient of variation of the interval (0 = periodic)
	Length     time.Duration // mean stolen time per event
	LengthCV   float64       // spread of the length distribution
	TailProb   float64       // probability an event comes from the Pareto tail
	TailFactor float64       // tail event length multiplier (xm = Length*TailFactor)
	TailAlpha  float64       // Pareto shape; 0 selects the default 1.8
	Disabled   bool
}

// Validate reports configuration errors.
func (s *Source) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("noise: source without name")
	}
	if len(s.Cores) == 0 {
		return fmt.Errorf("noise: source %q has no target cores", s.Name)
	}
	if s.Every <= 0 {
		return fmt.Errorf("noise: source %q has non-positive interval", s.Name)
	}
	if s.Length <= 0 {
		return fmt.Errorf("noise: source %q has non-positive length", s.Name)
	}
	if s.TailProb < 0 || s.TailProb > 1 {
		return fmt.Errorf("noise: source %q tail probability %v out of range", s.Name, s.TailProb)
	}
	return nil
}

func (s *Source) sampleInterval(rng *sim.Rand) time.Duration {
	if s.EveryCV <= 0 {
		return s.Every
	}
	d := rng.DurationLogNormal(s.Every, s.EveryCV)
	if d < time.Nanosecond {
		d = time.Nanosecond
	}
	return d
}

func (s *Source) sampleLength(rng *sim.Rand) time.Duration {
	if s.TailProb > 0 && rng.Bernoulli(s.TailProb) {
		xm := float64(s.Length) * s.TailFactor
		alpha := s.TailAlpha
		if alpha <= 0 {
			alpha = 1.8
		}
		return time.Duration(rng.Pareto(xm, alpha))
	}
	if s.LengthCV <= 0 {
		return s.Length
	}
	d := rng.DurationLogNormal(s.Length, s.LengthCV)
	if d < time.Nanosecond {
		d = time.Nanosecond
	}
	return d
}

// Generate produces the source's interruptions over [0, horizon) using the
// provided RNG stream. Output is sorted by start time.
func (s *Source) Generate(horizon time.Duration, rng *sim.Rand) []Interruption {
	if s.Disabled {
		return nil
	}
	var out []Interruption
	rr := 0
	// First arrival is uniform within one interval so independent sources
	// are not phase-aligned at t=0.
	t := sim.Time(rng.DurationUniform(0, s.Every))
	for t < sim.Time(horizon) {
		length := s.sampleLength(rng)
		switch s.Mode {
		case TargetAll:
			for _, c := range s.Cores {
				out = append(out, Interruption{Start: t, Len: length, CPU: c, Source: s.Name})
			}
		case TargetRoundRobin:
			c := s.Cores[rr%len(s.Cores)]
			rr++
			out = append(out, Interruption{Start: t, Len: length, CPU: c, Source: s.Name})
		case TargetRandom:
			c := s.Cores[rng.Intn(len(s.Cores))]
			out = append(out, Interruption{Start: t, Len: length, CPU: c, Source: s.Name})
		default: // TargetOne
			out = append(out, Interruption{Start: t, Len: length, CPU: s.Cores[0], Source: s.Name})
		}
		t = t.Add(s.sampleInterval(rng))
	}
	return out
}

// Profile is a node's complete noise description: the set of active sources.
type Profile struct {
	Sources []*Source
	// Subsystem labels the owning OS model ("linux", "mckernel") so the
	// telemetry counters this profile emits are attributable; empty means
	// the generic "noise" namespace.
	Subsystem string
}

// Add appends a source after validation.
func (p *Profile) Add(s *Source) error {
	if err := s.Validate(); err != nil {
		return err
	}
	p.Sources = append(p.Sources, s)
	return nil
}

// MustAdd appends a source and panics on configuration errors; used by the
// kernel models whose source definitions are static.
func (p *Profile) MustAdd(s *Source) {
	if err := p.Add(s); err != nil {
		panic(err)
	}
}

// ByName returns the named source or nil.
func (p *Profile) ByName(name string) *Source {
	for _, s := range p.Sources {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Timeline generates all interruptions over [0, horizon) grouped per core,
// publishing its counters into the calling goroutine's sink. It resolves
// that sink and the counter handles on every call; a run that builds many
// timelines resolves them once with Counters and calls TimelineTo.
func (p *Profile) Timeline(horizon time.Duration, rng *sim.Rand) *Timeline {
	return p.TimelineTo(p.Counters(telemetry.Default()), horizon, rng)
}

// TimelineTo generates all interruptions over [0, horizon) grouped per core,
// counting events and stolen time into c. Each source draws from an
// independent derived RNG stream, so disabling one source does not perturb
// the others' draws — required for the Table 2 one-countermeasure-at-a-time
// methodology to isolate effects.
func (p *Profile) TimelineTo(c *Counters, horizon time.Duration, rng *sim.Rand) *Timeline {
	tl := &Timeline{perCPU: make(map[int][]Interruption)}
	for i, s := range p.Sources {
		srcRng := rng.DeriveNamed(s.Name)
		events := s.Generate(horizon, srcRng)
		var stolen time.Duration
		for _, iv := range events {
			tl.perCPU[iv.CPU] = append(tl.perCPU[iv.CPU], iv)
			stolen += iv.Len
		}
		if len(events) > 0 {
			c.events(i, s.Name).Add(int64(len(events)))
			c.stolenNS().Add(int64(stolen))
		}
	}
	for cpu := range tl.perCPU {
		ivs := tl.perCPU[cpu]
		sort.Slice(ivs, func(i, j int) bool {
			if ivs[i].Start != ivs[j].Start {
				return ivs[i].Start < ivs[j].Start
			}
			return ivs[i].Source < ivs[j].Source
		})
	}
	return tl
}

// Counters are one profile's telemetry handles bound to one sink: the
// per-source event counters and the stolen-time counter. Each handle is
// looked up on first use and kept, so a source that never fires creates no
// metric, and the timelines after the first build no names and do no
// registry lookups. Use them only with the profile that made them, and
// from one goroutine at a time.
type Counters struct {
	sink   *telemetry.Sink
	prefix string               // "<subsystem>.noise."
	byIdx  []*telemetry.Counter // event counters by source index
	stolen *telemetry.Counter
}

// Counters binds the profile's counters to sink. The metric names carry the
// profile's Subsystem ("linux", "mckernel"), or "noise" when it is empty.
func (p *Profile) Counters(sink *telemetry.Sink) *Counters {
	sub := p.Subsystem
	if sub == "" {
		sub = "noise"
	}
	return &Counters{sink: sink, prefix: sub + ".noise.", byIdx: make([]*telemetry.Counter, len(p.Sources))}
}

// events returns the event counter of the profile's i-th source.
func (c *Counters) events(i int, name string) *telemetry.Counter {
	for i >= len(c.byIdx) {
		c.byIdx = append(c.byIdx, nil)
	}
	if c.byIdx[i] == nil {
		c.byIdx[i] = c.sink.C(c.prefix + "events." + name)
	}
	return c.byIdx[i]
}

// stolenNS returns the stolen-time counter.
func (c *Counters) stolenNS() *telemetry.Counter {
	if c.stolen == nil {
		c.stolen = c.sink.C(c.prefix + "stolen_ns")
	}
	return c.stolen
}

// Timeline holds per-core interruption streams and answers "how long does a
// quantum of work actually take on this core".
type Timeline struct {
	perCPU map[int][]Interruption
}

// ForCPU returns the interruptions on one core, sorted by start.
func (tl *Timeline) ForCPU(cpu int) []Interruption { return tl.perCPU[cpu] }

// TotalStolen returns the summed interruption time on a core.
func (tl *Timeline) TotalStolen(cpu int) time.Duration {
	var d time.Duration
	for _, iv := range tl.perCPU[cpu] {
		d += iv.Len
	}
	return d
}

// Advance computes when a quantum of work that starts at start on cpu
// finishes, accounting for every interruption that begins before the work
// completes (noise during the quantum extends it, potentially exposing it to
// further noise — the same fixed-point the FWQ benchmark measures).
func (tl *Timeline) Advance(cpu int, start sim.Time, work time.Duration) sim.Time {
	ivs := tl.perCPU[cpu]
	// Find first interruption ending after start.
	idx := sort.Search(len(ivs), func(i int) bool { return ivs[i].End() > start })
	end := start.Add(work)
	for ; idx < len(ivs); idx++ {
		iv := ivs[idx]
		if iv.Start >= end {
			break
		}
		// Stolen time: the part of the interruption overlapping our window
		// pushes the end out by the interruption's remaining length.
		stolen := iv.Len
		if iv.Start < start {
			overlap := iv.End().Sub(start)
			if overlap <= 0 {
				continue
			}
			stolen = overlap
		}
		end = end.Add(stolen)
	}
	return end
}
