package noise

import (
	"bytes"
	"testing"
	"time"

	"mkos/internal/sim"
	"mkos/internal/telemetry"
)

// dump renders a sink's registry in its deterministic text form.
func dump(t *testing.T, s *telemetry.Sink) string {
	t.Helper()
	var b bytes.Buffer
	if _, err := s.Registry().WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func routingProfile() *Profile {
	p := &Profile{Subsystem: "linux"}
	p.MustAdd(&Source{Name: "tick", Cores: []int{0, 1}, Mode: TargetAll, Every: 4 * time.Millisecond, Length: 2 * time.Microsecond})
	p.MustAdd(&Source{Name: "kw", Cores: []int{0, 1}, Mode: TargetRandom, Every: 30 * time.Millisecond, EveryCV: 0.5,
		Length: 40 * time.Microsecond, LengthCV: 0.3})
	p.MustAdd(&Source{Name: "off", Cores: []int{0}, Every: time.Millisecond, Length: time.Microsecond, Disabled: true})
	return p
}

// TestTimelineToPublishesIntoItsOwnSink builds timelines through counters
// bound to one sink while a different sink is installed for the calling
// goroutine: every count lands in the bound sink, none in the ambient one.
func TestTimelineToPublishesIntoItsOwnSink(t *testing.T) {
	p := routingProfile()
	own, ambient := telemetry.NewSink(), telemetry.NewSink()
	telemetry.RunWith(ambient, func() {
		c := p.Counters(own)
		for n := int64(0); n < 3; n++ {
			p.TimelineTo(c, time.Second, sim.NewRand(5).Derive(n))
		}
	})
	if got, want := dump(t, ambient), dump(t, telemetry.NewSink()); got != want {
		t.Fatalf("ambient sink received telemetry:\n%s", got)
	}

	var events, stolen int64
	for n := int64(0); n < 3; n++ {
		rng := sim.NewRand(5).Derive(n)
		for _, s := range p.Sources {
			for _, iv := range s.Generate(time.Second, rng.DeriveNamed(s.Name)) {
				events++
				stolen += int64(iv.Len)
			}
		}
	}
	reg := own.Registry()
	if got := reg.CounterValue("linux.noise.events.tick") + reg.CounterValue("linux.noise.events.kw"); got != events {
		t.Errorf("events counted %d, generated %d", got, events)
	}
	if got := reg.CounterValue("linux.noise.stolen_ns"); got != stolen {
		t.Errorf("stolen_ns %d, generated %d", got, stolen)
	}
	// A source that never fires creates no metric.
	if bytes.Contains([]byte(dump(t, own)), []byte("events.off")) {
		t.Errorf("disabled source created a counter:\n%s", dump(t, own))
	}
}

// TestTimelineWrapperKeepsRunWithCounters pins the old entry point: a
// RunWith trial calling Timeline ends with exactly the counters the
// explicit path publishes.
func TestTimelineWrapperKeepsRunWithCounters(t *testing.T) {
	p := routingProfile()
	trial, own := telemetry.NewSink(), telemetry.NewSink()
	telemetry.RunWith(trial, func() {
		for n := int64(0); n < 3; n++ {
			p.Timeline(time.Second, sim.NewRand(5).Derive(n))
		}
	})
	c := p.Counters(own)
	for n := int64(0); n < 3; n++ {
		p.TimelineTo(c, time.Second, sim.NewRand(5).Derive(n))
	}
	if got, want := dump(t, trial), dump(t, own); got != want {
		t.Fatalf("RunWith trial counters differ from the explicit path:\n%s\nwant:\n%s", got, want)
	}
	if trial.Registry().CounterValue("linux.noise.events.tick") == 0 {
		t.Fatal("trial sink received no noise counters")
	}
}
