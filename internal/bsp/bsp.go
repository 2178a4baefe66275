// Package bsp is the bulk-synchronous-parallel application engine: it takes
// a workload description (compute per step, memory behaviour, communication
// pattern), a machine description (OS model, fabric, core layout) and a node
// count, and produces a runtime with a cost breakdown. Per-step delays from
// OS noise are obtained by sampling every node's interruption timeline and
// taking the per-step maximum across all ranks — the direct Monte-Carlo
// counterpart of the paper's Eq. 1 (Figure 1's "one slow rank delays the
// step for everyone").
package bsp

import (
	"errors"
	"fmt"
	"time"

	"mkos/internal/interconnect"
	"mkos/internal/noise"
	"mkos/internal/sim"
	"mkos/internal/telemetry"
)

// OS is the operating-system cost model consumed by the engine. Both
// linux.Kernel and mckernel.Instance satisfy it.
type OS interface {
	Name() string
	NoiseProfile() *noise.Profile
	TranslationOverhead(workingSet int64, accessPeriod time.Duration) float64
	HeapChurnCost(churnBytes int64, calls, threads int) time.Duration
	RDMARegistrationCost(bytes int64) time.Duration
	BarrierLatency(n int) time.Duration
	CacheInterferenceFactor() float64
}

// Scaling is the problem-size behaviour as node count changes.
type Scaling int

const (
	// StrongScaling keeps the global problem fixed: per-rank work shrinks
	// with node count (all the paper's application sweeps are strong
	// scaling, which is why fixed per-step OS costs grow in relative
	// importance at scale).
	StrongScaling Scaling = iota
	// WeakScaling keeps per-rank work fixed.
	WeakScaling
)

// Workload describes one application's per-step behaviour at a reference
// node count.
type Workload struct {
	Name     string
	Scaling  Scaling
	RefNodes int // node count at which the per-rank figures below hold

	Steps       int
	StepCompute time.Duration // per-rank pure compute per step at RefNodes

	WorkingSetPerRank int64         // bytes touched per rank at RefNodes
	MemAccessPeriod   time.Duration // mean interval between distinct-page accesses
	HeapChurnPerStep  int64         // bytes allocated+freed per rank per step
	HeapCallsPerStep  int           // allocate/free pairs per step (does NOT strong-scale)

	AllreduceBytes int64 // payload of the per-step global reduction
	HaloBytes      int64 // nearest-neighbour exchange bytes per face
	HaloFaces      int

	// Init phase: fixed startup work plus RDMA registrations per rank
	// (GAMERA's dominant term on Fugaku, Sec. 6.4).
	InitCompute       time.Duration
	InitRegistrations int
	RegBytes          int64

	// RunVariance adds placement-dependent run-to-run variation (the error
	// bars the paper observed even under McKernel on GeoFEM).
	RunVariance float64
}

// Validate reports configuration errors.
func (w *Workload) Validate() error {
	if w.Name == "" {
		return errors.New("bsp: workload without name")
	}
	if w.RefNodes < 1 {
		return fmt.Errorf("bsp: %s: RefNodes %d", w.Name, w.RefNodes)
	}
	if w.Steps < 1 {
		return fmt.Errorf("bsp: %s: Steps %d", w.Name, w.Steps)
	}
	if w.StepCompute <= 0 {
		return fmt.Errorf("bsp: %s: StepCompute %v", w.Name, w.StepCompute)
	}
	return nil
}

// Geometry is a job's per-node rank/thread layout.
type Geometry struct {
	RanksPerNode   int
	ThreadsPerRank int
}

// Machine describes one platform configuration the workload runs on.
type Machine struct {
	OS             OS
	Fabric         *interconnect.Fabric
	Cores          []int // application cores on each node
	RanksPerNode   int
	ThreadsPerRank int

	// Sink receives the run's telemetry. Nil means the sink of the scope
	// Run is called in, resolved once per run.
	Sink *telemetry.Sink
}

// Validate reports configuration errors.
func (m *Machine) Validate() error {
	if m.OS == nil || m.Fabric == nil {
		return errors.New("bsp: machine missing OS or fabric")
	}
	if len(m.Cores) == 0 {
		return errors.New("bsp: machine has no application cores")
	}
	if m.RanksPerNode < 1 || m.ThreadsPerRank < 1 {
		return fmt.Errorf("bsp: bad rank geometry %dx%d", m.RanksPerNode, m.ThreadsPerRank)
	}
	return nil
}

// Breakdown decomposes a run's wall time.
type Breakdown struct {
	Init    time.Duration
	Compute time.Duration
	MemMgmt time.Duration
	Comm    time.Duration
	Barrier time.Duration
	Noise   time.Duration
}

// Total sums the components.
func (b Breakdown) Total() time.Duration {
	return b.Init + b.Compute + b.MemMgmt + b.Comm + b.Barrier + b.Noise
}

// Result is the outcome of one run.
type Result struct {
	App       string
	OS        string
	Nodes     int
	Runtime   time.Duration
	Breakdown Breakdown
}

// Run executes the workload on nodes nodes of the machine.
func Run(w Workload, m Machine, nodes int, seed int64) (Result, error) {
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	if nodes < 1 {
		return Result{}, fmt.Errorf("bsp: node count %d", nodes)
	}

	// Strong scaling shrinks per-rank work, working set and churn together.
	scale := 1.0
	if w.Scaling == StrongScaling {
		scale = float64(w.RefNodes) / float64(nodes)
	}
	stepCompute := time.Duration(float64(w.StepCompute) * scale)
	workingSet := int64(float64(w.WorkingSetPerRank) * scale)
	churn := int64(float64(w.HeapChurnPerStep) * scale)

	// Per-step compute with address-translation and cache-interference
	// overheads applied.
	overhead := m.OS.TranslationOverhead(workingSet, w.MemAccessPeriod)
	compute := time.Duration(float64(stepCompute) * (1 + overhead) * m.OS.CacheInterferenceFactor())

	memMgmt := m.OS.HeapChurnCost(churn, w.HeapCallsPerStep, m.ThreadsPerRank)

	allre, err := m.Fabric.Allreduce(w.AllreduceBytes, nodes)
	if err != nil {
		return Result{}, err
	}
	halo := time.Duration(0)
	if w.HaloBytes > 0 {
		halo, err = m.Fabric.HaloExchange(int64(float64(w.HaloBytes)*scale), w.HaloFaces, nodes)
		if err != nil {
			return Result{}, err
		}
	}
	comm := allre + halo

	barrier := m.OS.BarrierLatency(m.RanksPerNode*m.ThreadsPerRank) + m.Fabric.Barrier(nodes)

	init := w.InitCompute
	if w.InitRegistrations > 0 {
		init += time.Duration(w.InitRegistrations) * m.OS.RDMARegistrationCost(w.RegBytes)
	}

	stepBusy := compute + memMgmt + comm + barrier
	nominal := init + time.Duration(w.Steps)*stepBusy

	// Sample per-step noise delays: for every node, bucket its interruption
	// timeline into step windows and keep the global per-step maximum.
	sink := m.Sink
	if sink == nil {
		sink = telemetry.Default()
	}
	noiseDelay := sampleStepNoise(sink, m.OS.NoiseProfile(), m.Cores, nodes, w.Steps, init, stepBusy, nominal, seed)

	var total time.Duration
	for _, d := range noiseDelay {
		total += d
	}
	b := Breakdown{
		Init:    init,
		Compute: time.Duration(w.Steps) * compute,
		MemMgmt: time.Duration(w.Steps) * memMgmt,
		Comm:    time.Duration(w.Steps) * comm,
		Barrier: time.Duration(w.Steps) * barrier,
		Noise:   total,
	}
	runtime := b.Total()

	if w.RunVariance > 0 {
		rng := sim.NewRand(seed).DeriveNamed("placement:" + m.OS.Name())
		factor := 1 + w.RunVariance*rng.Normal(0, 1)
		if factor < 0.5 {
			factor = 0.5
		}
		runtime = time.Duration(float64(runtime) * factor)
	}

	sink.C("bsp.runs").Inc()
	sink.H("bsp.runtime_s", runtimeBuckets).Observe(runtime.Seconds())
	return Result{
		App: w.Name, OS: m.OS.Name(), Nodes: nodes,
		Runtime: runtime, Breakdown: b,
	}, nil
}

// runtimeBuckets covers sub-second micro-benchmarks up to hour-long sweeps.
var runtimeBuckets = telemetry.ExpBuckets(0.25, 2, 14)

// sampleStepNoise returns, for each step, the maximum interruption time any
// rank in the whole job suffers inside that step's window. The nodes'
// timelines publish into sink.
func sampleStepNoise(sink *telemetry.Sink, profile *noise.Profile, cores []int, nodes, steps int,
	init, stepBusy time.Duration, horizon time.Duration, seed int64) []time.Duration {

	delays := make([]time.Duration, steps)
	if stepBusy <= 0 {
		return delays
	}
	base := sim.NewRand(seed)
	counters := profile.Counters(sink)
	for n := 0; n < nodes; n++ {
		tl := profile.TimelineTo(counters, horizon, base.Derive(int64(n)))
		for _, core := range cores {
			perStep := map[int]time.Duration{}
			for _, iv := range tl.ForCPU(core) {
				at := iv.Start.Duration() - init
				if at < 0 {
					continue
				}
				step := int(at / stepBusy)
				if step >= steps {
					break
				}
				perStep[step] += iv.Len
			}
			for s, d := range perStep {
				if d > delays[s] {
					delays[s] = d
				}
			}
		}
	}
	return delays
}

// Compare runs the workload on two machines (typically Linux vs. McKernel on
// identical hardware) and returns the relative performance of b vs. a:
// runtimeA / runtimeB, matching the paper's plots where Linux is normalized
// to 1.0 and McKernel above 1.0 means the LWK wins.
func Compare(w Workload, a, b Machine, nodes int, seed int64) (ra, rb Result, relative float64, err error) {
	ra, err = Run(w, a, nodes, seed)
	if err != nil {
		return
	}
	rb, err = Run(w, b, nodes, seed)
	if err != nil {
		return
	}
	relative = float64(ra.Runtime) / float64(rb.Runtime)
	return
}
