package cluster

import (
	"errors"
	"fmt"
	"time"

	"mkos/internal/bsp"
	"mkos/internal/ihk"
	"mkos/internal/telemetry"
)

// Integration is how IHK/McKernel hooks into the platform's batch system
// (Sec. 5.1): on OFP booting the LWK "entails nothing more than calling a
// few privileged mode scripts in the prologue and epilogue of a particular
// job"; on Fugaku there is a much tighter integration with the Fujitsu TCS
// scheduler (hardware barrier setup, process placement, MPI interaction).
type Integration int

const (
	// PrologueEpilogue boots/tears down the LWK per job via scripts (OFP).
	PrologueEpilogue Integration = iota
	// TCSIntegrated keeps the multi-kernel managed by the job scheduler
	// itself (Fugaku).
	TCSIntegrated
)

func (i Integration) String() string {
	if i == TCSIntegrated {
		return "tcs-integrated"
	}
	return "prologue-epilogue"
}

// JobState tracks a submission's lifecycle.
type JobState int

const (
	JobQueued JobState = iota
	JobRunning
	JobCompleted
	JobFailed
)

func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobCompleted:
		return "completed"
	default:
		return "failed"
	}
}

// Job is one batch submission.
type Job struct {
	ID       int
	Workload bsp.Workload
	Geometry bsp.Geometry
	Nodes    int
	OS       OSKind
	// StopPMUReads requests the per-job TCS command of Sec. 4.2.1 that
	// disables automatic PMU counter collection (and its IPI noise).
	StopPMUReads bool
	Seed         int64

	State  JobState
	Result bsp.Result
	Err    error
	// Overhead is scheduler-side time: prologue/epilogue LWK boot for
	// script-based integration, near zero under TCS integration. Under
	// fault injection every re-run prologue adds here.
	Overhead time.Duration

	// Attempts counts executions including the first (set by the resilient
	// submission path; plain Submit leaves it at 1 semantics implicitly).
	Attempts int
	// FellBack reports the graceful-degradation path: the job's LWK failed
	// and it was re-run on native Linux with the slower noise profile.
	FellBack bool
}

// JobScheduler models the platform batch system with multi-kernel support.
type JobScheduler struct {
	Platform    *Platform
	Integration Integration

	sink      *telemetry.Sink // receives the scheduler's and its jobs' telemetry
	nextID    int
	completed []*Job
	failed    []*Job
}

// Boot-script costs for the prologue/epilogue path: reserving resources,
// loading IHK modules, booting McKernel, and the reverse on epilogue.
const (
	prologueBootCost = 8 * time.Second
	epilogueCost     = 3 * time.Second
)

// NewJobScheduler builds the batch system for a platform with its native
// integration style. It and the jobs it runs publish into the sink of the
// scope it is built in.
func NewJobScheduler(p *Platform) *JobScheduler {
	return newJobScheduler(p, telemetry.Default())
}

func newJobScheduler(p *Platform, sink *telemetry.Sink) *JobScheduler {
	integ := PrologueEpilogue
	if p.Name == "fugaku" {
		integ = TCSIntegrated
	}
	return &JobScheduler{Platform: p, Integration: integ, sink: sink}
}

// Job-system errors.
var (
	ErrTooManyNodes = errors.New("cluster: job exceeds machine size")
	ErrJobGeometry  = errors.New("cluster: job geometry does not fit the node")
)

// fail lands a job in the failed list with its terminal error; every path
// that produces JobFailed must come through here so Failed() sees it.
func (js *JobScheduler) fail(job *Job, err error) error {
	job.State = JobFailed
	job.Err = err
	js.failed = append(js.failed, job)
	js.sink.C("cluster.jobs.failed").Inc()
	return err
}

// Submit validates, runs and completes a job synchronously (the simulation
// has no queueing delay model; the paper's measurements also ran on
// dedicated reservations).
func (js *JobScheduler) Submit(w bsp.Workload, g bsp.Geometry, nodes int, os OSKind, seed int64) (*Job, error) {
	js.nextID++
	job := &Job{
		ID: js.nextID, Workload: w, Geometry: g, Nodes: nodes, OS: os,
		StopPMUReads: true, Seed: seed, State: JobQueued, Attempts: 1,
	}
	js.sink.C("cluster.jobs.submitted").Inc()
	if nodes < 1 || nodes > js.Platform.MaxNodes {
		return job, js.fail(job, fmt.Errorf("%w: %d > %d", ErrTooManyNodes, nodes, js.Platform.MaxNodes))
	}
	if err := js.Platform.Validate(g); err != nil {
		return job, js.fail(job, fmt.Errorf("%w: %v", ErrJobGeometry, err))
	}

	machine, _, err := js.Platform.machine(js.sink, os, g, ihk.Hooks{})
	if err != nil {
		return job, js.fail(job, err)
	}

	if os == McKernel && js.Integration == PrologueEpilogue {
		job.Overhead = prologueBootCost + epilogueCost
	}

	job.State = JobRunning
	res, err := bsp.Run(w, machine, nodes, seed)
	if err != nil {
		return job, js.fail(job, err)
	}
	job.Result = res
	job.State = JobCompleted
	js.completed = append(js.completed, job)
	js.sink.C("cluster.jobs.completed").Inc()
	return job, nil
}

// SubmitWithPMUReads runs a job with the automatic TCS PMU collection left
// on — the configuration the paper's countermeasure command exists to avoid.
func (js *JobScheduler) SubmitWithPMUReads(w bsp.Workload, g bsp.Geometry, nodes int, os OSKind, seed int64) (*Job, error) {
	js.nextID++
	job := &Job{
		ID: js.nextID, Workload: w, Geometry: g, Nodes: nodes, OS: os,
		StopPMUReads: false, Seed: seed, State: JobQueued, Attempts: 1,
	}
	js.sink.C("cluster.jobs.submitted").Inc()
	if err := js.Platform.Validate(g); err != nil {
		return job, js.fail(job, err)
	}
	clone := *js.Platform
	tune := clone.Tuning
	tune.Counter.StopPMUReads = false
	clone.Tuning = tune
	machine, _, err := clone.machine(js.sink, os, g, ihk.Hooks{})
	if err != nil {
		return job, js.fail(job, err)
	}
	job.State = JobRunning
	res, err := bsp.Run(w, machine, nodes, seed)
	if err != nil {
		return job, js.fail(job, err)
	}
	job.Result = res
	job.State = JobCompleted
	js.completed = append(js.completed, job)
	js.sink.C("cluster.jobs.completed").Inc()
	return job, nil
}

// Completed returns finished jobs in completion order.
func (js *JobScheduler) Completed() []*Job { return js.completed }

// Failed returns terminally failed jobs in failure order: submissions the
// validator rejected plus jobs whose retry budget the recovery machinery
// exhausted.
func (js *JobScheduler) Failed() []*Job { return js.failed }
