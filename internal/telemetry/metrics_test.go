package telemetry

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-7) // counters only go up
	c.Add(0)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestGaugeSetMax(t *testing.T) {
	var g Gauge
	g.SetMax(3)
	g.SetMax(1) // below the mark: ignored
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %g, want 3", got)
	}
	g.Set(1) // Set always overwrites
	if got := g.Value(); got != 1 {
		t.Fatalf("gauge after Set = %g, want 1", got)
	}
	var neg Gauge
	neg.SetMax(-5) // first SetMax establishes the mark even if negative
	if got := neg.Value(); got != -5 {
		t.Fatalf("gauge = %g, want -5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 3, 4})
	for _, v := range []float64{0.5, 1.5, 2.5, 3.5, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := h.Sum(), 0.5+1.5+2.5+3.5+100; got != want {
		t.Fatalf("sum = %g, want %g", got, want)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 3, 4})
	// 25 observations per bucket, uniform in spirit: min 0.5, max 3.5.
	for i := 0; i < 25; i++ {
		h.Observe(0.5)
		h.Observe(1.5)
		h.Observe(2.5)
		h.Observe(3.5)
	}
	cases := []struct{ q, want float64 }{
		{0, 0.5},      // q<=0 is the observed min
		{1, 3.5},      // q>=1 is the observed max
		{0.25, 1},     // exactly the top of the first bucket
		{0.5, 2},      // top of the second
		{0.75, 3},     // top of the third
		{0.125, 0.75}, // halfway through the first bucket [0.5,1]
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
}

func TestHistogramQuantileSingleValue(t *testing.T) {
	h := NewHistogram([]float64{1, 10})
	for i := 0; i < 3; i++ {
		h.Observe(5)
	}
	// All mass at one point: every quantile is that point, not a bucket edge.
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 5 {
			t.Fatalf("Quantile(%g) = %g, want 5", q, got)
		}
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	h := NewHistogram([]float64{1})
	if got := h.Quantile(0.5); !math.IsNaN(got) {
		t.Fatalf("empty histogram quantile = %g, want NaN", got)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.5, 2, 4)
	want := []float64{0.5, 1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("counter not shared by name")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("gauge not shared by name")
	}
	h1 := r.Histogram("h", []float64{1, 2})
	h2 := r.Histogram("h", []float64{99}) // later bounds ignored
	if h1 != h2 {
		t.Fatal("histogram not shared by name")
	}
	// CounterValue must not create as a side effect.
	if v := r.CounterValue("never-created"); v != 0 {
		t.Fatalf("CounterValue = %d", v)
	}
	var b bytes.Buffer
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "never-created") {
		t.Fatal("CounterValue created a metric")
	}
}

func TestRegistryDumpDeterministic(t *testing.T) {
	fill := func() *Registry {
		r := NewRegistry()
		// Insertion order differs from name order on purpose.
		r.Counter("z.last").Add(3)
		r.Counter("a.first").Inc()
		r.Gauge("m.gauge").Set(2.5)
		r.Histogram("lat", []float64{1, 10}).Observe(4)
		return r
	}
	var b1, b2 bytes.Buffer
	if _, err := fill().WriteTo(&b1); err != nil {
		t.Fatal(err)
	}
	if _, err := fill().WriteTo(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatalf("dumps differ:\n%s\n---\n%s", b1.String(), b2.String())
	}
	want := "# mkos metrics v1\n" +
		"counter a.first 1\n" +
		"counter z.last 3\n" +
		"gauge m.gauge 2.5\n" +
		"histogram lat count=1 sum=4 1:0 10:1 +Inf:0\n"
	if b1.String() != want {
		t.Fatalf("dump:\n%q\nwant:\n%q", b1.String(), want)
	}
}

func TestDefaultSinkHelpers(t *testing.T) {
	old := SetDefault(NewSink())
	defer SetDefault(old)
	C("x").Inc()
	G("y").Set(2)
	H("z", []float64{1}).Observe(0.5)
	reg := Default().Registry()
	if reg.CounterValue("x") != 1 {
		t.Fatal("C did not hit the default registry")
	}
	Default().Recorder().Enable()
	if !TraceEnabled() {
		t.Fatal("TraceEnabled does not see the default recorder enabled")
	}
	// Reset installs a fresh sink: old metrics gone, tracing off again.
	Reset()
	if Default().Registry().CounterValue("x") != 0 {
		t.Fatal("Reset kept old metrics")
	}
	if TraceEnabled() {
		t.Fatal("Reset kept tracing enabled")
	}
}
