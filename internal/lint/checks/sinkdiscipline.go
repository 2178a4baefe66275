package checks

import (
	"go/ast"

	"mkos/internal/lint/analysis"
)

// Sinkdiscipline keeps model code on the sink it was handed.
//
// Every simulation trial runs with a private sink installed for its
// goroutine (telemetry.RunWith), and the sweep folds the per-trial
// snapshots in key order afterwards. Finding that sink costs: Default
// parses the goroutine id out of runtime.Stack, which takes the runtime's
// global print lock, so with one sink live per CPU a lookup measured tens
// of microseconds and concurrent trials serialised on it. Model code
// therefore resolves the sink once where a public operation starts
// (telemetry.Default, or a sink it is given) and publishes through the
// *telemetry.Sink it holds. The analyzer enforces both halves of that
// in model packages — everything outside the ops allowlist, which covers
// cmd/, internal/sweep and tests (not linted):
//
//   - the package-level publish helpers (telemetry.C, G, H, Span,
//     Instant, TraceEnabled, AttachEngine) are findings, because each call
//     pays the lookup again;
//   - the sink installers (telemetry.SetDefault, Reset, RunWith) are
//     findings, because swapping the process-wide sink under concurrent
//     trials, or re-installing sinks the orchestrator owns, bleeds
//     deterministic metrics across trials in completion order.
//
// telemetry.Default itself stays legal: it is how an operation resolves
// its sink. The shard runner, an orchestrator inside a model package,
// installs its per-shard sinks under a reasoned suppression.
var Sinkdiscipline = &analysis.Analyzer{
	Name: "sinkdiscipline",
	Doc: "model code publishes through a *telemetry.Sink it holds, resolved once per operation; " +
		"the package-level publish helpers and the sink installers (SetDefault/Reset/RunWith) are for entry points",
	Run: runSinkdiscipline,
}

// sinkInstallers are the telemetry functions that install or replace a
// sink rather than publish into the current one.
var sinkInstallers = map[string]bool{
	"SetDefault": true, "Reset": true, "RunWith": true,
}

// sinkHelpers are the package-level publish helpers: each resolves the
// goroutine's sink on every call.
var sinkHelpers = map[string]bool{
	"C": true, "G": true, "H": true, "Span": true, "Instant": true,
	"TraceEnabled": true, "AttachEngine": true,
}

func runSinkdiscipline(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	// The telemetry package implements the sink machinery; ops-side
	// packages own it.
	if isOpsPackage(path) || fromPath(path, "internal/telemetry") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeObj(pass.TypesInfo, call)
			if obj == nil || isMethod(obj) || !fromPkg(obj, "internal/telemetry") {
				return true
			}
			switch name := obj.Name(); {
			case sinkInstallers[name]:
				pass.Reportf(call.Pos(),
					"telemetry.%s in model package %s: deterministic metrics must flow through "+
						"the sink the orchestrator installs (telemetry.RunWith in internal/sweep); "+
						"replacing sinks here breaks per-trial isolation and mixes deterministic "+
						"metrics with the ops registry",
					name, path)
			case sinkHelpers[name]:
				pass.Reportf(call.Pos(),
					"telemetry.%s in model package %s looks the sink up by goroutine id on every "+
						"call: resolve it once where the operation starts (telemetry.Default, or a "+
						"sink the caller hands in) and call %s on the *telemetry.Sink you hold",
					name, path, name)
			}
			return true
		})
	}
	return nil
}
