package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// metricDef names one reported metric and its unit. The lists below are the
// benchmark's contract: BENCHMARK.json carries the same names and units
// (TestBenchmarkJSONMatchesCode holds the two together).
type metricDef struct {
	name, unit string
}

// endToEnd is what --trace 0 reports: host costs a user of the campaign
// paths waits on or pays for.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer is what --trace 1 reports. Timings come as a median plus the
// highest percentile with ten samples beyond it ("_ptail"), next to the
// count they were taken over. A layer a workload does not reach reports 0.
var perLayer = []metricDef{
	{"sweep.trials", "count"},
	{"sweep.trial_ms_p50", "ms"},
	{"sweep.trial_ms_ptail", "ms"},
	{"sweep.pool_utilization", "ratio"},
	{"sweep.payload_kb", "KB"},

	{"cluster.node_builds", "count"},
	{"linux.new_kernel_ms", "ms"},
	{"linux.new_kernel_ms_ptail", "ms"},
	{"ihk.reserve_memory_ms", "ms"},
	{"ihk.reserve_memory_ms_ptail", "ms"},
	{"ihk.reserves", "count"},
	{"mckernel.boot_ms", "ms"},
	{"mckernel.boot_ms_ptail", "ms"},
	{"mem.buddy_allocs", "count"},
	{"mem.buddy_splits", "count"},

	{"noise.timelines", "count"},
	{"noise.events", "count"},
	{"noise.timeline_us_p50", "us"},
	{"noise.timeline_us_ptail", "us"},
	{"noise.timeline_samples", "count"},
	{"noise.timeline_alloc_kb", "KB"},

	{"sim.derives", "count"},
	{"sim.derive_ns", "ns"},
	{"sim.derive_alloc_b", "B"},

	{"telemetry.lookup_ns_in_sweep", "ns"},
	{"telemetry.lookup_ns_plain", "ns"},

	{"bsp.runs", "count"},
	{"bsp.run_ms_p50", "ms"},
	{"bsp.run_ms_ptail", "ms"},

	{"apps.fwq_node_ms", "ms"},
	{"apps.fwq_node_ms_ptail", "ms"},
	{"apps.fwq_sketch_node_ms", "ms"},
	{"apps.fwq_sketch_node_ms_ptail", "ms"},
	{"apps.fwq_nodes", "count"},
	{"noise.merge_ms", "ms"},
	{"noise.merges", "count"},

	{"cluster.submits", "count"},
	{"cluster.submit_ms_p50", "ms"},
	{"cluster.submit_ms_ptail", "ms"},
	{"sim.events_fired", "count"},
	{"sim.queue_high_water", "count"},
	{"sim.events_per_s", "1/s"},
	{"fault.injected", "count"},

	{"shard.windows", "count"},
	{"shard.cross_messages", "count"},
	{"shard.barrier_wait_ms", "ms"},
	{"shard.speedup", "ratio"},

	{"share.noise_timeline", "ratio"},
	{"share.mem_buddy", "ratio"},
	{"share.ihk", "ratio"},
	{"share.telemetry", "ratio"},
	{"share.rng_seed", "ratio"},
	{"share.telemetry_rng", "ratio"},
	{"share.sim_engine", "ratio"},
	{"share.bsp", "ratio"},
	{"share.shard", "ratio"},
	{"share.json", "ratio"},
	{"share.gc", "ratio"},

	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.peak_rss_mb", "MB"},

	{"trace.overhead_s", "s"},
	{"trace.spans", "count"},
}

// report is one invocation's outcome.
type report struct {
	correct           bool
	attempted, failed int
	// digest is the hash of the deterministic output the golden is
	// recorded against.
	digest string
	defs   []metricDef
	values map[string]float64
}

func newReport(defs []metricDef) *report {
	return &report{correct: true, defs: defs, values: map[string]float64{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// print writes one human-readable line per metric, then the result object
// as the last line. Every metric of the report's list must have been set.
func (r *report) print(w io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.defs))
	for _, d := range r.defs {
		if err := validName(d.name); err != nil {
			return err
		}
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = value{v, d.unit}
		fmt.Fprintf(w, "  %-32s %14s %s\n", d.name, strconv.FormatFloat(v, 'g', 6, 64), d.unit)
	}
	fmt.Fprintf(w, "  %-32s %d of %d (fail_frac %g)\n", "failed operations", r.failed, r.attempted,
		failFrac(r.failed, r.attempted))
	fmt.Fprintf(w, "  %-32s %s\n", "output digest", r.digest)
	blob, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct && r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}
