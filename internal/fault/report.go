package fault

import (
	"fmt"
	"strings"
	"time"

	"mkos/internal/telemetry"
)

// FailureReport summarises one fault-injection experiment: what was injected,
// how long detection took, how much work the recovery machinery had to redo,
// and what it cost in wasted node-seconds. All counters are plain ints and
// fixed-size arrays indexed by Kind — no maps — so the String rendering is
// byte-identical across runs with the same seed.
type FailureReport struct {
	Seed int64

	Jobs      int // submissions
	Completed int // finished, possibly after retries
	Fallbacks int // completed only after falling back to native Linux
	Failed    int // terminally failed (retry budget exhausted)

	Injected [NumKinds]int // faults that actually struck, by kind
	Retries  int           // re-run attempts across all jobs

	Detections   int           // faults noticed by the monitor
	DetectLatSum time.Duration // total detection latency
	DetectLatMax time.Duration

	WastedNodeSeconds float64       // node-time burned by failed attempts
	Makespan          time.Duration // simulated clock at experiment end

	BlacklistedNodes []int // global node ids, ascending

	sink *telemetry.Sink // receives the fault counters; nil means Default()
}

// NewFailureReport starts the report of the experiment with the given
// seed, publishing its fault counters into sink.
func NewFailureReport(seed int64, sink *telemetry.Sink) *FailureReport {
	return &FailureReport{Seed: seed, sink: sink}
}

// TotalInjected sums faults across kinds.
func (r *FailureReport) TotalInjected() int {
	n := 0
	for _, c := range r.Injected {
		n += c
	}
	return n
}

// MeanDetectionLatency returns the average time-to-detection, 0 if nothing
// was detected.
func (r *FailureReport) MeanDetectionLatency() time.Duration {
	if r.Detections == 0 {
		return 0
	}
	return r.DetectLatSum / time.Duration(r.Detections)
}

// detectLatencyBuckets buckets detection latency in milliseconds.
var detectLatencyBuckets = telemetry.ExpBuckets(1, 4, 8)

// AddFault records one injected fault.
func (r *FailureReport) AddFault(k Kind) {
	r.Injected[k]++
	r.sink.C("fault.injected." + k.String()).Inc()
}

// AddDetection records the monitor noticing a fault lat after it struck.
func (r *FailureReport) AddDetection(lat time.Duration) {
	r.Detections++
	r.DetectLatSum += lat
	if lat > r.DetectLatMax {
		r.DetectLatMax = lat
	}
	r.sink.C("fault.detections").Inc()
	r.sink.H("fault.detect_latency_ms", detectLatencyBuckets).
		Observe(float64(lat) / float64(time.Millisecond))
}

// AddWaste charges nodes burning d each to the wasted-work counter.
func (r *FailureReport) AddWaste(nodes int, d time.Duration) {
	r.WastedNodeSeconds += float64(nodes) * d.Seconds()
}

// Blacklist records a node being taken out of service, keeping the list
// sorted and duplicate free.
func (r *FailureReport) Blacklist(node int) {
	for i, n := range r.BlacklistedNodes {
		if n == node {
			return
		}
		if n > node {
			r.BlacklistedNodes = append(r.BlacklistedNodes, 0)
			copy(r.BlacklistedNodes[i+1:], r.BlacklistedNodes[i:])
			r.BlacklistedNodes[i] = node
			return
		}
	}
	r.BlacklistedNodes = append(r.BlacklistedNodes, node)
}

// String renders the report deterministically: fixed field order, fixed kind
// order, no map iteration anywhere. Two runs with the same seed must produce
// byte-identical output (asserted by the determinism regression test).
func (r *FailureReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "failure report (seed %d)\n", r.Seed)
	fmt.Fprintf(&b, "  jobs: %d submitted, %d completed (%d via linux fallback), %d failed\n",
		r.Jobs, r.Completed, r.Fallbacks, r.Failed)
	fmt.Fprintf(&b, "  faults injected: %d total\n", r.TotalInjected())
	for k := Kind(0); k < NumKinds; k++ {
		if r.Injected[k] > 0 {
			fmt.Fprintf(&b, "    %-18s %d\n", k, r.Injected[k])
		}
	}
	fmt.Fprintf(&b, "  retries: %d\n", r.Retries)
	fmt.Fprintf(&b, "  detection: %d detected, mean latency %v, max %v\n",
		r.Detections, r.MeanDetectionLatency().Round(time.Microsecond), r.DetectLatMax.Round(time.Microsecond))
	fmt.Fprintf(&b, "  wasted node-seconds: %.3f\n", r.WastedNodeSeconds)
	fmt.Fprintf(&b, "  blacklisted nodes: %d %v\n", len(r.BlacklistedNodes), r.BlacklistedNodes)
	fmt.Fprintf(&b, "  makespan: %v\n", r.Makespan)
	return b.String()
}
