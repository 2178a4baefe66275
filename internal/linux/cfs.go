package linux

import (
	"container/heap"
	"fmt"
	"time"

	"mkos/internal/kernel"
	"mkos/internal/sim"
	"mkos/internal/telemetry"
)

// CFS-lite: an event-driven per-core run queue in the style of Linux's
// Completely Fair Scheduler, used to validate the statistical noise model
// from first principles. Where the noise profiles *assert* "an unbound
// daemon wake-up steals ~300 µs from whatever application thread owns the
// core", this scheduler *derives* the steal: a daemon waking on a busy core
// preempts the application task for exactly the service time CFS grants it.
// The linux tests cross-check the two models (TestCFSMatchesNoiseModel).
type CFS struct {
	engine *sim.Engine
	cores  map[int]*cfsCore
	sink   *telemetry.Sink // receives preemption counts and spans
}

type cfsCore struct {
	id      int
	queue   vruntimeHeap
	running *cfsEntity
	// appRunning accumulates the time the application entity actually ran,
	// and stolen the time others occupied the core while the app wanted it.
	appRunning time.Duration
	stolen     time.Duration
	lastSwitch sim.Time
}

// cfsEntity is one schedulable entity with CFS weight semantics.
type cfsEntity struct {
	name     string
	kind     kernel.TaskKind
	vruntime time.Duration
	weight   int // nice-derived weight; larger runs more
	// remaining is the service the entity still wants before sleeping
	// again; the application entity wants to run forever (remaining < 0).
	remaining time.Duration
	index     int
}

type vruntimeHeap []*cfsEntity

func (h vruntimeHeap) Len() int           { return len(h) }
func (h vruntimeHeap) Less(i, j int) bool { return h[i].vruntime < h[j].vruntime }
func (h vruntimeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *vruntimeHeap) Push(x any)        { e := x.(*cfsEntity); e.index = len(*h); *h = append(*h, e) }
func (h *vruntimeHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// NewCFS builds the scheduler over the given cores. It publishes into the
// sink of the scope it is built in.
func NewCFS(engine *sim.Engine, cores []int) *CFS {
	c := &CFS{engine: engine, cores: make(map[int]*cfsCore, len(cores)), sink: telemetry.Default()}
	for _, id := range cores {
		c.cores[id] = &cfsCore{id: id}
	}
	return c
}

// cfsSlice is the scheduling granularity: a preempting entity runs at most
// this long before the core rebalances (sched_min_granularity-ish).
const cfsSlice = 3 * time.Millisecond

// PinApp installs an always-runnable application entity on a core, starting
// now. It returns an error if the core is unknown or already has an app.
func (c *CFS) PinApp(core int, name string) error {
	cc, ok := c.cores[core]
	if !ok {
		return fmt.Errorf("linux: cfs has no core %d", core)
	}
	if cc.running != nil {
		return fmt.Errorf("linux: core %d already running %s", core, cc.running.name)
	}
	cc.running = &cfsEntity{name: name, kind: kernel.AppTask, weight: 1024, remaining: -1}
	cc.lastSwitch = c.engine.Now()
	return nil
}

// Wake makes a system entity runnable on a core for service service time;
// it preempts a running application per CFS rules (the fresh entity's
// vruntime starts at the minimum, so it runs immediately).
func (c *CFS) Wake(core int, name string, kind kernel.TaskKind, service time.Duration) error {
	cc, ok := c.cores[core]
	if !ok {
		return fmt.Errorf("linux: cfs has no core %d", core)
	}
	if service <= 0 {
		return fmt.Errorf("linux: non-positive service for %s", name)
	}
	e := &cfsEntity{name: name, kind: kind, weight: 1024, remaining: service}
	// A waking task's vruntime is clamped to the queue minimum: it
	// preempts promptly, which is exactly why unbound daemons hurt.
	heap.Push(&cc.queue, e)
	c.dispatch(cc)
	return nil
}

// dispatch preempts the app if a system entity is waiting.
func (c *CFS) dispatch(cc *cfsCore) {
	if cc.queue.Len() == 0 {
		return
	}
	if cc.running != nil && cc.running.kind != kernel.AppTask {
		return // a system entity is already being serviced
	}
	// Account the app's running time up to the preemption.
	now := c.engine.Now()
	if cc.running != nil {
		cc.appRunning += now.Sub(cc.lastSwitch)
	}
	app := cc.running
	next := heap.Pop(&cc.queue).(*cfsEntity)
	cc.running = next
	cc.lastSwitch = now
	run := next.remaining
	if run > cfsSlice {
		run = cfsSlice
	}
	c.sink.C("linux.cfs.preemptions").Inc()
	if c.sink.TraceEnabled() {
		c.sink.Span("linux", "cfs:"+next.name, 0, cc.id, now, run,
			telemetry.Arg{Key: "kind", Val: next.kind.String()})
	}
	c.engine.Schedule(run, "cfs:"+next.name, func(e *sim.Engine) {
		cc.stolen += run
		next.remaining -= run
		if next.remaining > 0 {
			// Re-queue for another slice.
			heap.Push(&cc.queue, next)
		}
		cc.running = app
		cc.lastSwitch = e.Now()
		c.dispatch(cc)
	})
}

// StolenOn returns the time system entities have occupied a core while an
// application entity was pinned there.
func (c *CFS) StolenOn(core int) time.Duration {
	cc, ok := c.cores[core]
	if !ok {
		return 0
	}
	return cc.stolen
}

// AppRunOn returns the accounted application run time (up to the last
// context switch).
func (c *CFS) AppRunOn(core int) time.Duration {
	cc, ok := c.cores[core]
	if !ok {
		return 0
	}
	return cc.appRunning
}
