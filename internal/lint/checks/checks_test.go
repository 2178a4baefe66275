package checks_test

import (
	"testing"

	"mkos/internal/lint/analysis"
	"mkos/internal/lint/checks"
	"mkos/internal/lint/linttest"
)

// Each corpus demonstrates at least one caught violation (want-comment)
// and one accepted suppression (//simlint:allow with no want).

func TestWalltime(t *testing.T) {
	linttest.Run(t, checks.Walltime, "testdata/walltime", "mkos/internal/fake/walltime")
}

// TestWalltimeOpsAllowlist loads the same kind of code under a cmd/
// path, where the host clock is legal: zero findings expected.
func TestWalltimeOpsAllowlist(t *testing.T) {
	linttest.Run(t, checks.Walltime, "testdata/walltime_ops", "mkos/cmd/fake")
}

func TestGlobalrand(t *testing.T) {
	linttest.Run(t, checks.Globalrand, "testdata/globalrand", "mkos/internal/fake/globalrand")
}

// TestGlobalrandSimPackage checks the one import exemption: a package
// path ending in internal/sim may wrap math/rand, but still may not
// draw from the global source.
func TestGlobalrandSimPackage(t *testing.T) {
	linttest.Run(t, checks.Globalrand, "testdata/globalrand_sim", "mkos/fake/internal/sim")
}

func TestMaporder(t *testing.T) {
	linttest.Run(t, checks.Maporder, "testdata/maporder", "mkos/internal/fake/maporder")
}

func TestSinkdiscipline(t *testing.T) {
	linttest.Run(t, checks.Sinkdiscipline, "testdata/sinkdiscipline", "mkos/internal/fake/sinkdiscipline")
}

// TestSinkdisciplineOpsAllowlist loads helper and installer calls under a
// cmd/ path, where entry points may use them: zero findings expected.
func TestSinkdisciplineOpsAllowlist(t *testing.T) {
	linttest.Run(t, checks.Sinkdiscipline, "testdata/sinkdiscipline_ops", "mkos/cmd/fake")
}

func TestSimtime(t *testing.T) {
	linttest.Run(t, checks.Simtime, "testdata/simtime", "mkos/internal/fake/simtime")
}

func TestOpsbound(t *testing.T) {
	linttest.Run(t, checks.Opsbound, "testdata/opsbound", "mkos/internal/fake/opsbound")
}

// TestOpsboundOpsAllowlist loads the same import under a cmd/ path, where
// the flight recorder is legal: zero findings expected.
func TestOpsboundOpsAllowlist(t *testing.T) {
	linttest.Run(t, checks.Opsbound, "testdata/opsbound_ops", "mkos/cmd/fake")
}

// TestOpsboundCampaignsException checks the sweep carve-out: the
// internal/sweep prefix is ops-allowed, but internal/sweep/campaigns
// holds the deterministic trial units and stays bound — by opsbound,
// walltime and sinkdiscipline alike.
func TestOpsboundCampaignsException(t *testing.T) {
	linttest.RunAnalyzers(t, []*analysis.Analyzer{checks.Opsbound, checks.Walltime, checks.Sinkdiscipline},
		"testdata/opsbound_campaigns", "mkos/internal/sweep/campaigns")
}

// TestSuppressionHandling exercises the directive grammar and scoping
// against a real analyzer: missing reason fails, unknown check name
// fails, an own-line directive covers the complete next statement
// (however many lines it spans), and a trailing directive covers only
// its line.
func TestSuppressionHandling(t *testing.T) {
	linttest.Run(t, checks.Walltime, "testdata/suppress", "mkos/internal/fake/suppress")
}

func TestLockguard(t *testing.T) {
	linttest.Run(t, checks.Lockguard, "testdata/lockguard", "mkos/internal/fake/lockguard")
}

func TestCtxflow(t *testing.T) {
	linttest.Run(t, checks.Ctxflow, "testdata/ctxflow", "mkos/internal/fake/ctxflow")
}

// TestCtxflowFix checks the Background-to-parameter rewrite against its
// golden output.
func TestCtxflowFix(t *testing.T) {
	linttest.RunFix(t, checks.Ctxflow, "testdata/ctxflow_fix", "mkos/internal/fake/ctxflowfix")
}

// TestSimtimeFix checks the stale-capture-to-live-clock rewrite against
// its golden output; the handler that discards its engine parameter gets
// a finding but no fix.
func TestSimtimeFix(t *testing.T) {
	linttest.RunFix(t, checks.Simtime, "testdata/simtime_fix", "mkos/internal/fake/simtimefix")
}

func TestOpstaint(t *testing.T) {
	linttest.Run(t, checks.Opstaint, "testdata/opstaint", "mkos/internal/fake/opstaint")
}

// TestOpstaintCrossPackage loads the defining corpus and its importer
// through one loader, in dependency order: the taint fact exported for
// taintsrc.Elapsed is the only thing connecting the importer's Schedule
// argument to the host clock.
func TestOpstaintCrossPackage(t *testing.T) {
	linttest.RunDirs(t, []*analysis.Analyzer{checks.Opstaint},
		linttest.Dir{Path: "testdata/opstaint_src", PkgPath: "mkos/internal/simd/taintsrc"},
		linttest.Dir{Path: "testdata/opstaint_import", PkgPath: "mkos/internal/fake/importer"},
	)
}
