package cluster

import (
	"bytes"
	"testing"

	"mkos/internal/fault"
	"mkos/internal/telemetry"
)

func dump(t *testing.T, s *telemetry.Sink) string {
	t.Helper()
	var b bytes.Buffer
	if _, err := s.Registry().WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func tracingSink() *telemetry.Sink {
	s := telemetry.NewSink()
	s.Recorder().Enable()
	return s
}

// routingRates make every kind of scheduler telemetry fire: prologue
// failures with Linux fallback, LWK panics, retries and blacklisting.
var routingRates = fault.Rates{LWKPanicPerHour: 2000, IHKReserveFailProb: 0.05}

func submitRoutingJobs(t *testing.T, rs *ResilientScheduler) {
	t.Helper()
	for j := int64(0); j < 4; j++ {
		kind := McKernel
		if j%2 == 1 {
			kind = Linux
		}
		if _, err := rs.Submit(recoveryWorkload(), testGeometry, 8, kind, 40+j); err != nil {
			t.Logf("job %d: %v", j, err)
		}
	}
}

// TestResilientSchedulerPublishesIntoItsSink builds a scheduler under one
// sink and submits under another: the scheduler, its failure report, its
// engine profiler, the nodes it boots and the bsp runs of its jobs all
// publish into the sink it was built under.
func TestResilientSchedulerPublishesIntoItsSink(t *testing.T) {
	own, ambient := tracingSink(), tracingSink()
	var rs *ResilientScheduler
	telemetry.RunWith(own, func() { rs = newRS(t, routingRates, DefaultRecoveryPolicy(), 21) })
	telemetry.RunWith(ambient, func() { submitRoutingJobs(t, rs) })

	if got, want := dump(t, ambient), dump(t, telemetry.NewSink()); got != want {
		t.Fatalf("ambient sink received telemetry:\n%s", got)
	}
	if n := ambient.Recorder().Len(); n != 0 {
		t.Fatalf("ambient recorder holds %d trace events", n)
	}
	reg := own.Registry()
	for _, name := range []string{"cluster.jobs.submitted", "cluster.attempts", "cluster.retries",
		"bsp.runs", "fault.detections", "sim.events_fired", "linux.noise.stolen_ns"} {
		if reg.CounterValue(name) == 0 {
			t.Errorf("scheduler sink has no %s:\n%s", name, dump(t, own))
		}
	}
	if rs.Report.TotalInjected() == 0 {
		t.Fatal("no fault injected: the rates no longer exercise the recovery path")
	}
	if own.Recorder().Len() == 0 {
		t.Error("scheduler sink recorded no trace events")
	}

	// The same jobs on a scheduler built and driven inside one RunWith
	// publish exactly the same telemetry.
	trial := tracingSink()
	telemetry.RunWith(trial, func() {
		submitRoutingJobs(t, newRS(t, routingRates, DefaultRecoveryPolicy(), 21))
	})
	if got, want := dump(t, trial), dump(t, own); got != want {
		t.Fatalf("RunWith trial counters differ from the explicit path:\n%s\nwant:\n%s", got, want)
	}
}
