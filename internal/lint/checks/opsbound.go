package checks

import (
	"strconv"
	"strings"

	"mkos/internal/lint/analysis"
)

// Opsbound keeps the wall-clock flight recorder out of deterministic code.
//
// internal/telemetry/ops is the ops-side observability surface: spans
// stamped with time.Now, a Prometheus exposition of process-lifetime
// counters, and a structured logger. All of it is legitimately
// nondeterministic — which is exactly why no trial-unit package may touch
// it. A deterministic package that records ops spans (or logs through
// oplog) couples artifact-producing code to the host clock and to
// process-wide mutable state; the byte-identity gates would still pass,
// because the contamination lands in a side channel, and that is the
// worst kind of drift: invisible until someone keys a decision off it.
// Deterministic code records through internal/telemetry (sim-time sinks,
// merged in key order); the orchestrator, daemon and CLIs own the ops
// tracer and propagate it via context so instrumentation never leaks
// downward. internal/sweep is ops-side plumbing and may import ops, but
// internal/sweep/campaigns holds the trial units themselves and stays bound
// (see isOpsPackage).
var Opsbound = &analysis.Analyzer{
	Name: "opsbound",
	Doc: "deterministic packages must not import internal/telemetry/ops; " +
		"the wall-clock flight recorder belongs to orchestrator, daemon and CLI plumbing",
	Run: runOpsbound,
}

// opsTelemetryImport reports whether path names internal/telemetry/ops or
// one of its subpackages (the structured logger lives at ops/log).
func opsTelemetryImport(path string) bool {
	const root = "internal/telemetry/ops"
	if fromPath(path, root) {
		return true
	}
	return strings.Contains(path, "/"+root+"/") || strings.HasPrefix(path, root+"/")
}

func runOpsbound(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	// Ops-side packages own the flight recorder.
	if isOpsPackage(path) {
		return nil
	}
	// The ops package and its subpackages import each other freely.
	if opsTelemetryImport(path) {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !opsTelemetryImport(p) {
				continue
			}
			pass.Reportf(imp.Pos(),
				"import of %s in deterministic package %s: the ops flight recorder is "+
					"wall-clock, process-wide state; deterministic code records through "+
					"internal/telemetry, and ops spans are propagated by the orchestrator "+
					"via context (ops.Start is a no-op without an attached tracer)",
				p, path)
		}
	}
	return nil
}
