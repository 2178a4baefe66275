package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"mkos/internal/cluster"
	"mkos/internal/noise"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		in := append([]float64(nil), c.in...)
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Fatalf("median reordered its input: %v", c.in)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
	} {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the rule must sort
		}
		return xs
	}
	for _, c := range []struct {
		n         int
		pct, want float64
	}{
		{0, 0, 0},
		{1, 100, 1},
		{19, 100, 19},   // no percentile at or above the median has ten beyond it
		{20, 50, 10},    // the 10th smallest: ten samples beyond it
		{100, 90, 90},   // p90 of 1..100, with 91..100 beyond it
		{1000, 99, 990}, // p99
	} {
		pct, v := tailPercentile(seq(c.n))
		if pct != c.pct || v != c.want {
			t.Errorf("n=%d: tailPercentile = p%v %v, want p%v %v", c.n, pct, v, c.pct, c.want)
		}
		if c.n >= 20 {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond != 10 {
				t.Errorf("n=%d: %d samples beyond the tail value, want 10", c.n, beyond)
			}
		}
	}
}

func TestFailFrac(t *testing.T) {
	if got := failFrac(0, 0); got != 0 {
		t.Errorf("failFrac(0, 0) = %v, want 0", got)
	}
	if got := failFrac(3, 12); got != 0.25 {
		t.Errorf("failFrac(3, 12) = %v, want 0.25", got)
	}
}

func TestCountFailures(t *testing.T) {
	ref := &output{opDigests: []string{"a", "b", "c"}}
	for _, c := range []struct {
		name     string
		ref, out *output
		want     int
	}{
		{"first call, clean", nil, &output{opDigests: []string{"a", "b", "c"}}, 0},
		{"first call, one trial error", nil, &output{opDigests: []string{"a", "", "c"}}, 1},
		{"repeat matches", ref, &output{opDigests: []string{"a", "b", "c"}}, 0},
		{"repeat differs and errs", ref, &output{opDigests: []string{"x", "", "c"}}, 2},
		{"repeat lost a trial", ref, &output{opDigests: []string{"a", "b"}}, 2},
	} {
		if got := countFailures(c.ref, c.out); got != c.want {
			t.Errorf("%s: countFailures = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"wall_s", "sweep.trial_ms_p50", "go.gc-cycles", "9x", strings.Repeat("a", 64)} {
		if err := validName(ok); err != nil {
			t.Errorf("validName(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "é", strings.Repeat("a", 65)} {
		if validName(bad) == nil {
			t.Errorf("validName(%q) = nil, want an error", bad)
		}
	}
}

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json and the metric lists the
// program prints to the same names, units and order.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if err := validName(d.name); err != nil {
				t.Error(err)
			}
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
		if _, ok := golden[w.Name]; !ok {
			t.Errorf("workload %q has no golden digest", w.Name)
		}
	}
}

func TestReportPrintsEveryMetricLast(t *testing.T) {
	rep := newReport(endToEnd)
	if err := rep.print(&bytes.Buffer{}); err == nil {
		t.Fatal("print succeeded with unmeasured metrics")
	}
	for i, d := range endToEnd {
		rep.set(d.name, float64(i)+0.5)
	}
	rep.attempted = 4
	var buf bytes.Buffer
	if err := rep.print(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !res.Correct || res.Attempted != 4 || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result = %+v", res)
	}
}

// TestLayerSharesReadsCPUProfile profiles a busy loop and checks the
// decoder finds it on the stacks.
func TestLayerSharesReadsCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, weights, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, spinning int64
	for i, s := range stacks {
		total += weights[i]
		if onStack(s, []string{"mkos/mkbench.spin"}) {
			spinning += weights[i]
		}
	}
	if total == 0 || spinning == 0 {
		t.Fatalf("%d samples, %d in spin", total, spinning)
	}
	shares, err := layerShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != len(layerPrefixes) {
		t.Errorf("%d shares, want %d", len(shares), len(layerPrefixes))
	}
}

var spinSink float64

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			spinSink += math.Sqrt(float64(i))
		}
	}
}

// TestGoldenDigests makes one timed call of every workload at the default
// seed and checks its digest against golden.json, so a change to a
// workload's inputs cannot leave a stale golden behind.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	for name, w := range workloads {
		inst, err := w.setup(defaultSeed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out, err := inst.run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.digest != golden[name] {
			t.Errorf("%s: digest %s, golden %s", name, out.digest, golden[name])
		}
		if n := countFailures(nil, out); n != 0 {
			t.Errorf("%s: %d failed operations", name, n)
		}
	}
}

// TestProbeTimelinesCountsEveryRun checks that a batch built several times
// counts each run, and that a batch with no known horizon is counted but not
// rebuilt.
func TestProbeTimelinesCountsEveryRun(t *testing.T) {
	node, err := cluster.Fugaku().NewNode(cluster.Linux)
	if err != nil {
		t.Fatal(err)
	}
	profile := node.OS().NoiseProfile()
	get := func() (*noise.Profile, error) { return profile, nil }
	rep := newReport(perLayer)
	if err := probeTimelines(rep, []timelineJob{
		{profile: get, horizon: time.Millisecond, seed: 1, nodes: 8, runs: 3},
		{profile: get, seed: 2, nodes: 8, runs: 2},
	}); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"noise.timelines":        40,
		"sim.derives":            float64(40 * (1 + len(profile.Sources))),
		"noise.timeline_samples": 8,
	}
	for name, v := range want {
		if got := rep.values[name]; got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
}
