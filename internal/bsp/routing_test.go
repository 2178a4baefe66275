package bsp

import (
	"bytes"
	"testing"
	"time"

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

// TestRunPublishesIntoMachineSink runs on a Machine carrying its own sink
// while a different sink is installed for the calling goroutine: the run's
// bsp and noise counters land in the machine's sink, none in the ambient.
func TestRunPublishesIntoMachineSink(t *testing.T) {
	own, ambient := telemetry.NewSink(), telemetry.NewSink()
	m := testMachine(noisyOS("n", 50*time.Microsecond, 2*time.Millisecond))
	m.Sink = own
	telemetry.RunWith(ambient, func() {
		if _, err := Run(testWorkload(), m, 16, 3); err != nil {
			t.Fatal(err)
		}
	})
	if got, want := dump(t, ambient), dump(t, telemetry.NewSink()); got != want {
		t.Fatalf("ambient sink received telemetry:\n%s", got)
	}
	reg := own.Registry()
	if reg.CounterValue("bsp.runs") != 1 || reg.CounterValue("noise.noise.events.nz") == 0 {
		t.Fatalf("machine sink missing the run's counters:\n%s", dump(t, own))
	}
}

// TestRunWithoutSinkKeepsRunWithCounters pins the old entry point: a
// RunWith trial running a Machine without a sink ends with exactly the
// counters a machine carrying the sink publishes.
func TestRunWithoutSinkKeepsRunWithCounters(t *testing.T) {
	os := noisyOS("n", 50*time.Microsecond, 2*time.Millisecond)
	trial, own := telemetry.NewSink(), telemetry.NewSink()
	telemetry.RunWith(trial, func() {
		if _, err := Run(testWorkload(), testMachine(os), 16, 3); err != nil {
			t.Fatal(err)
		}
	})
	m := testMachine(os)
	m.Sink = own
	if _, err := Run(testWorkload(), m, 16, 3); err != nil {
		t.Fatal(err)
	}
	if got, want := dump(t, trial), dump(t, own); got != want {
		t.Fatalf("RunWith trial counters differ from the explicit path:\n%s\nwant:\n%s", got, want)
	}
	if trial.Registry().CounterValue("bsp.runs") != 1 {
		t.Fatalf("trial sink missing bsp.runs:\n%s", dump(t, trial))
	}
}
