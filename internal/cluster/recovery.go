package cluster

import (
	"errors"
	"fmt"
	"time"

	"mkos/internal/bsp"
	"mkos/internal/fault"
	"mkos/internal/ihk"
	"mkos/internal/mckernel"
	"mkos/internal/sim"
	"mkos/internal/telemetry"
)

// This file wires failure recovery into the batch system: the operational
// reality of Sec. 5 that the performance models alone cannot express. At
// pre-exascale scale McKernel instances panic and hang, prologue scripts
// fail to reserve IHK resources, and LWK memory exhaustion is fatal (no
// demand paging). Fugaku's TCS integration detects dead LWKs and falls back
// to Linux; this is that machinery, driven by the deterministic fault
// injector and the discrete-event engine.

// RecoveryPolicy configures how the scheduler reacts to detected failures.
type RecoveryPolicy struct {
	// MaxRetries bounds re-runs per job; past it the job fails terminally.
	MaxRetries int
	// BackoffBase and BackoffCap shape the capped exponential backoff
	// between a detected failure and the next attempt.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// BlacklistAfter is how many failures a node may cause before it is
	// taken out of service. 0 disables blacklisting.
	BlacklistAfter int
	// LinuxFallback enables graceful degradation: a job whose LWK boot
	// fails — or that has suffered FallbackAfter LWK runtime faults — is
	// re-run on native Linux with the slower noise profile.
	LinuxFallback bool
	// FallbackAfter is the LWK runtime-failure count that triggers the
	// Linux fallback (boot failures fall back immediately).
	FallbackAfter int
	// Watchdog is the heartbeat/timeout detector.
	Watchdog fault.Watchdog
}

// DefaultRecoveryPolicy returns production-flavored settings.
func DefaultRecoveryPolicy() RecoveryPolicy {
	return RecoveryPolicy{
		MaxRetries:     5,
		BackoffBase:    2 * time.Second,
		BackoffCap:     30 * time.Second,
		BlacklistAfter: 2,
		LinuxFallback:  true,
		FallbackAfter:  2,
		Watchdog:       fault.DefaultWatchdog(),
	}
}

// Validate rejects unusable policies.
func (p RecoveryPolicy) Validate() error {
	if p.MaxRetries < 0 {
		return fmt.Errorf("cluster: negative MaxRetries %d", p.MaxRetries)
	}
	if p.BackoffBase < 0 || p.BackoffCap < p.BackoffBase {
		return fmt.Errorf("cluster: backoff base %v cap %v", p.BackoffBase, p.BackoffCap)
	}
	return p.Watchdog.Validate()
}

// Backoff returns the wait before re-running after the retry-th failure
// (0-based): base doubled per retry, capped.
func (p RecoveryPolicy) Backoff(retry int) time.Duration {
	d := p.BackoffBase
	for i := 0; i < retry; i++ {
		d *= 2
		if d >= p.BackoffCap {
			return p.BackoffCap
		}
	}
	if d > p.BackoffCap {
		return p.BackoffCap
	}
	return d
}

// Recovery errors.
var (
	ErrRetriesExhausted  = errors.New("cluster: job failed after exhausting retries")
	ErrInsufficientNodes = errors.New("cluster: not enough healthy nodes")
	// errInjectedReservation marks the injector-forced prologue failure; it
	// surfaces wrapped in the real ihk error chain.
	errInjectedReservation = errors.New("cluster: injected IHK reservation failure")
)

// ResilientScheduler is a JobScheduler with failure detection and recovery:
// jobs run on the shared discrete-event clock, faults strike per the
// injector's schedule, a heartbeat-fed watchdog detects them, and the policy
// decides between LWK reboot + retry, node blacklisting, and Linux fallback.
type ResilientScheduler struct {
	*JobScheduler
	Injector *fault.Injector
	Policy   RecoveryPolicy
	Engine   *sim.Engine
	Report   *fault.FailureReport

	nodeFailures map[int]int
	blacklisted  map[int]bool
}

// NewResilientScheduler builds the fault-aware batch system. The scheduler,
// its failure report and the nodes and runs of its jobs publish into the
// sink of the scope it is built in.
func NewResilientScheduler(p *Platform, inj *fault.Injector, pol RecoveryPolicy) (*ResilientScheduler, error) {
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	if inj == nil {
		inj = fault.NewInjector(fault.Rates{}, 0)
	}
	sink := telemetry.Default()
	eng := sim.NewEngine()
	// Every event the recovery machinery schedules lands in the sink's
	// profiler: per-handler counts, queue-depth high-water mark.
	sink.AttachEngine(eng)
	return &ResilientScheduler{
		JobScheduler: newJobScheduler(p, sink),
		Injector:     inj,
		Policy:       pol,
		Engine:       eng,
		Report:       fault.NewFailureReport(inj.Seed(), sink),
		nodeFailures: make(map[int]int),
		blacklisted:  make(map[int]bool),
	}, nil
}

// Blacklisted reports whether a node has been taken out of service.
func (rs *ResilientScheduler) Blacklisted(node int) bool { return rs.blacklisted[node] }

// assignNodes picks the job's nodes: the lowest-numbered healthy indices.
// Deterministic — no map iteration; the blacklist is consulted per index.
func (rs *ResilientScheduler) assignNodes(n int) ([]int, bool) {
	out := make([]int, 0, n)
	for idx := 0; idx < rs.Platform.MaxNodes && len(out) < n; idx++ {
		if !rs.blacklisted[idx] {
			out = append(out, idx)
		}
	}
	if len(out) < n {
		return nil, false
	}
	return out, true
}

// noteNodeFailure counts a failure against a node and blacklists it past the
// policy threshold.
func (rs *ResilientScheduler) noteNodeFailure(node int) {
	rs.nodeFailures[node]++
	if rs.Policy.BlacklistAfter > 0 && rs.nodeFailures[node] >= rs.Policy.BlacklistAfter && !rs.blacklisted[node] {
		rs.blacklisted[node] = true
		rs.Report.Blacklist(node)
		rs.sink.C("cluster.nodes.blacklisted").Inc()
		rs.sink.Instant("cluster", "blacklist", node, 0, rs.Engine.Now())
	}
}

// Submit runs a job under fault injection. It returns when the job has
// either completed (possibly after retries and OS fallback) or failed
// terminally; either way the job is recorded in Completed()/Failed() and the
// experiment's Report is updated.
func (rs *ResilientScheduler) Submit(w bsp.Workload, g bsp.Geometry, nodes int, os OSKind, seed int64) (*Job, error) {
	rs.nextID++
	job := &Job{
		ID: rs.nextID, Workload: w, Geometry: g, Nodes: nodes, OS: os,
		StopPMUReads: true, Seed: seed, State: JobQueued,
	}
	rs.Report.Jobs++
	rs.sink.C("cluster.jobs.submitted").Inc()
	if nodes < 1 || nodes > rs.Platform.MaxNodes {
		return job, rs.fail(job, fmt.Errorf("%w: %d > %d", ErrTooManyNodes, nodes, rs.Platform.MaxNodes))
	}
	if err := rs.Platform.Validate(g); err != nil {
		return job, rs.fail(job, fmt.Errorf("%w: %v", ErrJobGeometry, err))
	}

	rs.Engine.Schedule(0, fmt.Sprintf("job%d-start", job.ID), func(*sim.Engine) {
		rs.runAttempt(job, os, seed, 0, 0)
	})
	//simlint:allow ctxflow — Submit is a deterministic run-to-completion replay: the engine drains synchronously on the caller's goroutine, and cancellation (when wanted) is the engine cancel hook, not a ctx
	runErr := rs.Engine.Run()
	rs.Report.Makespan = rs.Engine.Now().Duration()
	if runErr != nil {
		// Interrupted (cancel hook or event budget) with events still
		// queued: the job's outcome is undecided, surface the interrupt.
		return job, runErr
	}
	if job.State == JobFailed {
		return job, job.Err
	}
	return job, nil
}

// fail overrides the base helper only to keep the report in sync.
func (rs *ResilientScheduler) fail(job *Job, err error) error {
	rs.Report.Failed++
	return rs.JobScheduler.fail(job, err)
}

// attempt is the in-flight state of one execution of a job.
type attempt struct {
	job         *Job
	os          OSKind
	seed        int64
	n           int // attempt index, 0-based
	lwkFailures int

	start   sim.Time // attempt start (prologue begins here)
	runAt   sim.Time // run start (prologue done)
	nodeIDs []int
	node    *Node

	complete  *sim.Event
	watchdog  *sim.Timer
	heartbeat *sim.Ticker

	dead     bool
	detected bool
	theFault fault.Fault
	faultAt  sim.Time
	faultErr error
}

// runAttempt schedules one execution of the job at the current instant.
func (rs *ResilientScheduler) runAttempt(job *Job, os OSKind, seed int64, n, lwkFailures int) {
	e := rs.Engine
	job.Attempts = n + 1
	job.OS = os
	job.State = JobRunning
	rs.sink.C("cluster.attempts").Inc()
	a := &attempt{job: job, os: os, seed: seed, n: n, lwkFailures: lwkFailures, start: e.Now()}

	nodeIDs, ok := rs.assignNodes(job.Nodes)
	if !ok {
		_ = rs.fail(job, fmt.Errorf("%w: need %d, blacklist holds %d of %d",
			ErrInsufficientNodes, job.Nodes, len(rs.Report.BlacklistedNodes), rs.Platform.MaxNodes))
		return
	}
	a.nodeIDs = nodeIDs

	// Prologue: booting the LWK costs real time — on every attempt for
	// script-based integration, and on re-runs everywhere (the "LWK reboot"
	// recovery action re-executes the prologue with its boot cost).
	var prologue time.Duration
	if os == McKernel && (rs.Integration == PrologueEpilogue || n > 0) {
		prologue = prologueBootCost
	}

	// Prologue-time IHK reservation failures are decided before boot and
	// surfaced through the real ihk hook chain below.
	var prologueFailed []int
	if os == McKernel {
		prologueFailed = rs.Injector.Prologue(job.ID, n, nodeIDs)
	}
	hooks := ihk.Hooks{}
	if len(prologueFailed) > 0 {
		victim := prologueFailed[0]
		hooks.BeforeReserveMemory = func(int64) error {
			return fmt.Errorf("%w: node %d", errInjectedReservation, victim)
		}
	}

	machine, node, err := rs.Platform.machine(rs.sink, os, job.Geometry, hooks)
	if len(prologueFailed) > 0 {
		// The prologue script fails after burning its boot time.
		job.Overhead += prologue
		e.Schedule(prologue, fmt.Sprintf("job%d-a%d-prologue-fail", job.ID, n), func(*sim.Engine) {
			rs.onPrologueFailure(a, prologueFailed, err)
		})
		return
	}
	if err != nil {
		// Model error, not an injected fault: terminal.
		_ = rs.fail(job, err)
		return
	}
	a.node = node
	job.Overhead += prologue

	res, err := bsp.Run(job.Workload, machine, job.Nodes, seed+int64(n))
	if err != nil {
		_ = rs.fail(job, err)
		return
	}

	faults := rs.Injector.Runtime(job.ID, n, nodeIDs, os == McKernel, res.Runtime)
	a.runAt = a.start.Add(prologue)
	name := fmt.Sprintf("job%d-a%d", job.ID, n)

	// Completion event: cancelled if a fault strikes first.
	a.complete = e.ScheduleAt(a.runAt.Add(res.Runtime), name+"-complete", func(*sim.Engine) {
		rs.onComplete(a, res)
	})

	// Detection machinery: a watchdog timer fed by the job's heartbeat.
	// Fail-stop faults are noticed at the next sweep; fail-silent ones only
	// when the feeding stops and the timer expires.
	wd := rs.Policy.Watchdog
	a.watchdog = e.AfterFunc(sim.Duration(a.runAt.Sub(e.Now()))+wd.Timeout, name+"-watchdog", func(*sim.Engine) {
		rs.onDetect(a)
	})
	a.heartbeat = e.Every(a.runAt.Add(wd.Interval), wd.Interval, name+"-heartbeat", func(e *sim.Engine) {
		if !a.dead {
			a.watchdog.Reset(wd.Timeout)
			return
		}
		if a.theFault.Kind.FailStop() && !a.detected {
			// The sweep sees the death notification / console panic.
			rs.onDetect(a)
		}
	})

	// Only the earliest fault fires; the job is dead from then on.
	if len(faults) > 0 {
		f := faults[0]
		e.ScheduleAt(a.runAt.Add(f.At), fmt.Sprintf("%s-%s@n%d", name, f.Kind, f.Node), func(*sim.Engine) {
			rs.onFault(a, f)
		})
	}
}

// attemptSpan puts one attempt's lifetime on the shared timeline: pid is the
// attempt's first node, the span runs from prologue start to the instant the
// outcome was known (completion, or detection for dead attempts).
func (rs *ResilientScheduler) attemptSpan(a *attempt, outcome string) {
	if !rs.sink.TraceEnabled() {
		return
	}
	pid := 0
	if len(a.nodeIDs) > 0 {
		pid = a.nodeIDs[0]
	}
	now := rs.Engine.Now()
	rs.sink.Span("cluster", fmt.Sprintf("job%d/a%d", a.job.ID, a.n), pid, 0,
		a.start, sim.Duration(now.Sub(a.start)),
		telemetry.Arg{Key: "outcome", Val: outcome},
		telemetry.Arg{Key: "os", Val: a.os.String()})
}

// onFault marks the attempt dead and pokes the matching kernel surfaces so
// the recorded error chains are the real ones.
func (rs *ResilientScheduler) onFault(a *attempt, f fault.Fault) {
	e := rs.Engine
	a.dead = true
	a.theFault = f
	a.faultAt = e.Now()
	rs.Report.AddFault(f.Kind)
	rs.sink.Instant("cluster", "fault:"+f.Kind.String(), f.Node, 0, e.Now())
	e.Cancel(a.complete)

	switch f.Kind {
	case fault.LWKPanic:
		if a.node != nil && a.node.LWK != nil {
			a.faultErr = a.node.LWK.Panic(fmt.Sprintf("injected panic on node %d", f.Node))
		}
	case fault.LWKOOM:
		if a.node != nil && a.node.LWK != nil {
			lwk := a.node.LWK
			lwk.LWKMem.AllocHook = func(int64) error {
				return fmt.Errorf("no demand paging: allocation is fatal: %w", mckernel.ErrLWKOutOfMemory)
			}
			_, err := lwk.LWKMem.Alloc(1)
			lwk.LWKMem.AllocHook = nil
			a.faultErr = lwk.Panic(fmt.Sprintf("OOM on node %d: %v", f.Node, err))
		}
	case fault.IKCTimeout:
		a.faultErr = fmt.Errorf("cluster: IKC message lost on node %d: delegated syscall never returned", f.Node)
	case fault.LWKHang:
		a.faultErr = fmt.Errorf("cluster: LWK hang on node %d", f.Node)
	case fault.NodeCrash:
		a.faultErr = fmt.Errorf("cluster: node %d crashed", f.Node)
	}
	// Fail-silent faults are now waiting on the watchdog; fail-stop ones on
	// the next heartbeat sweep.
}

// onPrologueFailure handles an IHK reservation failing in the prologue
// script: detection is synchronous (the script exits non-zero), the wasted
// time is the boot cost, and graceful degradation applies immediately — a
// job whose LWK boot fails re-runs on native Linux.
func (rs *ResilientScheduler) onPrologueFailure(a *attempt, failedNodes []int, bootErr error) {
	for range failedNodes {
		rs.Report.AddFault(fault.IHKReserveFail)
	}
	rs.Report.AddDetection(0)
	rs.Report.AddWaste(a.job.Nodes, prologueBootCost)
	for _, nd := range failedNodes {
		rs.noteNodeFailure(nd)
	}
	a.faultErr = bootErr
	if a.faultErr == nil {
		a.faultErr = errInjectedReservation
	}
	nextOS := a.os
	fellBack := false
	if rs.Policy.LinuxFallback {
		nextOS = Linux
		fellBack = true
	}
	rs.retry(a, nextOS, a.lwkFailures+1, fellBack)
}

// onDetect fires when the monitor learns the attempt is dead: watchdog
// expiry for fail-silent faults, heartbeat sweep for fail-stop ones.
func (rs *ResilientScheduler) onDetect(a *attempt) {
	if a.detected || !a.dead {
		// A watchdog expiry racing a completed attempt cannot happen (the
		// completion handler stops the timer), but guard double detection.
		return
	}
	a.detected = true
	e := rs.Engine
	a.heartbeat.Stop()
	a.watchdog.Stop()
	rs.Report.AddDetection(e.Now().Sub(a.faultAt))
	rs.Report.AddWaste(a.job.Nodes, e.Now().Sub(a.start))
	rs.attemptSpan(a, "fault:"+a.theFault.Kind.String())
	rs.noteNodeFailure(a.theFault.Node)

	lwkFailures := a.lwkFailures
	if a.theFault.Kind.LWKOnly() {
		lwkFailures++
	}
	nextOS := a.os
	fellBack := false
	if rs.Policy.LinuxFallback && a.os == McKernel && lwkFailures >= rs.Policy.FallbackAfter {
		nextOS = Linux
		fellBack = true
	}
	rs.retry(a, nextOS, lwkFailures, fellBack)
}

// retry schedules the next attempt after backoff, or fails the job
// terminally when the budget is gone.
func (rs *ResilientScheduler) retry(a *attempt, nextOS OSKind, lwkFailures int, fellBack bool) {
	job := a.job
	if a.n+1 > rs.Policy.MaxRetries {
		_ = rs.fail(job, fmt.Errorf("%w: %d attempts, last fault: %v",
			ErrRetriesExhausted, a.n+1, a.faultErr))
		return
	}
	if fellBack {
		job.FellBack = true
		rs.sink.C("cluster.fallbacks").Inc()
	}
	rs.Report.Retries++
	rs.sink.C("cluster.retries").Inc()
	backoff := rs.Policy.Backoff(a.n)
	rs.Engine.Schedule(backoff, fmt.Sprintf("job%d-retry%d", job.ID, a.n+1), func(*sim.Engine) {
		rs.runAttempt(job, nextOS, a.seed, a.n+1, lwkFailures)
	})
}

// onComplete finishes a healthy attempt.
func (rs *ResilientScheduler) onComplete(a *attempt, res bsp.Result) {
	a.heartbeat.Stop()
	a.watchdog.Stop()
	rs.attemptSpan(a, "completed")
	job := a.job
	if a.os == McKernel && rs.Integration == PrologueEpilogue {
		job.Overhead += epilogueCost
	}
	job.Result = res
	job.State = JobCompleted
	job.Err = nil
	rs.completed = append(rs.completed, job)
	rs.Report.Completed++
	rs.sink.C("cluster.jobs.completed").Inc()
	if job.FellBack {
		rs.Report.Fallbacks++
	}
}
