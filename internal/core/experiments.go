// Package core is the experiment façade of the reproduction: it wires
// platforms, operating systems and workloads together and regenerates every
// table and figure of the paper's evaluation (Sec. 6). Each experiment
// returns structured results that cmd/ tools print and tests assert on.
package core

import (
	"fmt"
	"time"

	"mkos/internal/apps"
	"mkos/internal/bsp"
	"mkos/internal/cluster"
	"mkos/internal/noise"
	"mkos/internal/stats"
)

// Comparison is one (app, node count) Linux-vs-McKernel measurement:
// relative performance with Linux normalized to 1.0, exactly as the paper's
// Figures 5-7 plot it. Relative > 1 means McKernel is faster.
type Comparison struct {
	App      string
	Platform string
	Nodes    int
	// Relative is mean runtime(Linux)/runtime(McKernel) across seeds.
	Relative float64
	// RelErr is the standard deviation across seeds (the error bars).
	RelErr float64
	// LinuxRuntime and McKRuntime are mean runtimes.
	LinuxRuntime, McKRuntime time.Duration
	// Breakdowns of the last seed's runs, for diagnosis.
	LinuxBreakdown, McKBreakdown bsp.Breakdown
}

// Compare runs app on the platform at one node count under both OSes for
// each seed.
func Compare(p *cluster.Platform, app apps.App, nodes int, seeds []int64) (Comparison, error) {
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	nodes = p.ClampNodes(nodes)
	linuxMachine, _, err := p.Machine(cluster.Linux, app.Geometry)
	if err != nil {
		return Comparison{}, fmt.Errorf("core: building Linux machine: %w", err)
	}
	mckMachine, _, err := p.Machine(cluster.McKernel, app.Geometry)
	if err != nil {
		return Comparison{}, fmt.Errorf("core: building McKernel machine: %w", err)
	}
	out := Comparison{App: app.Workload.Name, Platform: p.Name, Nodes: nodes}
	var rels []float64
	var linSum, mckSum time.Duration
	for _, seed := range seeds {
		ra, rb, rel, err := bsp.Compare(app.Workload, linuxMachine, mckMachine, nodes, seed)
		if err != nil {
			return Comparison{}, err
		}
		rels = append(rels, rel)
		linSum += ra.Runtime
		mckSum += rb.Runtime
		out.LinuxBreakdown = ra.Breakdown
		out.McKBreakdown = rb.Breakdown
	}
	s, err := stats.Summarize(rels)
	if err != nil {
		return Comparison{}, err
	}
	out.Relative = s.Mean
	out.RelErr = s.Stddev
	out.LinuxRuntime = linSum / time.Duration(len(seeds))
	out.McKRuntime = mckSum / time.Duration(len(seeds))
	return out, nil
}

// Sweep runs an application across a list of node counts.
func Sweep(p *cluster.Platform, app apps.App, nodeCounts []int, seeds []int64) ([]Comparison, error) {
	var out []Comparison
	for _, n := range nodeCounts {
		if n > app.MaxNodes {
			continue
		}
		c, err := Compare(p, app, n, seeds)
		if err != nil {
			return nil, fmt.Errorf("core: %s at %d nodes: %w", app.Workload.Name, n, err)
		}
		out = append(out, c)
	}
	return out, nil
}

// FigureSpec identifies one application panel of Figures 5-7.
type FigureSpec struct {
	Figure   string
	Platform apps.PlatformName
	App      string
	Nodes    []int
}

// Figure5Specs returns the CORAL panels of Figure 5 (OFP only).
func Figure5Specs() []FigureSpec {
	nodes := []int{16, 64, 256, 1024, 4096, 8192}
	var out []FigureSpec
	for _, app := range apps.CoralSuite() {
		out = append(out, FigureSpec{Figure: "5", Platform: apps.OnOFP, App: app, Nodes: nodes})
	}
	return out
}

// Figure6Specs returns the Fugaku-project apps on OFP.
func Figure6Specs() []FigureSpec {
	return []FigureSpec{
		{Figure: "6", Platform: apps.OnOFP, App: "LQCD", Nodes: []int{32, 128, 512, 2048}},
		{Figure: "6", Platform: apps.OnOFP, App: "GeoFEM", Nodes: []int{16, 64, 256, 1024, 4096, 8192}},
		{Figure: "6", Platform: apps.OnOFP, App: "GAMERA", Nodes: []int{64, 256, 1024, 4096}},
	}
}

// Figure7Specs returns the Fugaku-project apps on Fugaku (≤24 racks: the
// paper could not run larger scales due to resource limitations).
func Figure7Specs() []FigureSpec {
	nodes := []int{128, 512, 2048, 8192}
	var out []FigureSpec
	for _, app := range apps.FugakuSuite() {
		out = append(out, FigureSpec{Figure: "7", Platform: apps.OnFugaku, App: app, Nodes: nodes})
	}
	return out
}

// PlatformFor returns the cluster preset for a platform name.
func PlatformFor(p apps.PlatformName) *cluster.Platform {
	if p == apps.OnFugaku {
		return cluster.Fugaku()
	}
	return cluster.OFP()
}

// RunFigure executes one figure spec.
func RunFigure(spec FigureSpec, seeds []int64) ([]Comparison, error) {
	app, err := apps.ByName(spec.App, spec.Platform)
	if err != nil {
		return nil, err
	}
	return Sweep(PlatformFor(spec.Platform), app, spec.Nodes, seeds)
}

// --- Table 2 / Figure 3: noise countermeasures ----------------------------

// Table2Row is one row of Table 2.
type Table2Row struct {
	Disabled  string
	MaxNoise  time.Duration
	NoiseRate float64
	// Lengths feed Figure 3's time-series plots.
	Lengths []time.Duration
}

// Table2Config parameterizes the countermeasure experiment.
type Table2Config struct {
	Nodes    int
	Duration time.Duration
	Seed     int64
}

// DefaultTable2Config matches the paper: a 16-node in-house A64FX system.
func DefaultTable2Config() Table2Config {
	return Table2Config{Nodes: 16, Duration: 6 * time.Minute, Seed: 11}
}

// Table2Paper holds one row's published Table 2 values, printed beside the
// measured ones.
type Table2Paper struct {
	MaxNoiseUS float64
	NoiseRate  float64
}

// table2Variant pairs a countermeasure's table label with its short name
// (the spelling specs use for the Figure 3 series and the attribution
// report), its published values, and the tuning switch that disables it.
type table2Variant struct {
	name, short string
	paper       Table2Paper
	mutate      func(*cluster.Platform)
}

// table2Variants lists the experiment's rows in paper order: the all-enabled
// baseline first, then one disabled countermeasure per row.
var table2Variants = []table2Variant{
	{"None", "none", Table2Paper{50.44, 3.79e-6}, func(*cluster.Platform) {}},
	{"Daemon process", "daemons", Table2Paper{20346.98, 9.94e-4}, func(p *cluster.Platform) { p.Tuning.Counter.BindDaemons = false }},
	{"Unbound kworker tasks", "kworkers", Table2Paper{266.34, 4.58e-6}, func(p *cluster.Platform) { p.Tuning.Counter.BindKworkers = false }},
	{"blk-mq worker tasks", "blkmq", Table2Paper{387.91, 4.58e-6}, func(p *cluster.Platform) { p.Tuning.Counter.BindBlkMQ = false }},
	{"PMU counter reads", "pmu", Table2Paper{103.09, 8.27e-6}, func(p *cluster.Platform) { p.Tuning.Counter.StopPMUReads = false }},
	{"CPU-global flush instruction", "tlbi", Table2Paper{90.2, 3.87e-6}, func(p *cluster.Platform) { p.Tuning.Counter.SuppressGlobalTLBI = false }},
}

// Table2Variants returns the countermeasure labels in table order. Each is a
// valid argument to Table2Variant, and an independent trial for a sweep
// campaign.
func Table2Variants() []string {
	out := make([]string, len(table2Variants))
	for i, v := range table2Variants {
		out[i] = v.name
	}
	return out
}

// Countermeasures returns the short countermeasure names in table order:
// none, daemons, kworkers, blkmq, pmu, tlbi.
func Countermeasures() []string {
	out := make([]string, len(table2Variants))
	for i, v := range table2Variants {
		out[i] = v.short
	}
	return out
}

// PaperTable2 returns the published values of the row labelled disabled
// (zero for an unknown label).
func PaperTable2(disabled string) Table2Paper {
	for _, v := range table2Variants {
		if v.name == disabled {
			return v.paper
		}
	}
	return Table2Paper{}
}

// CountermeasurePlatform returns a Fugaku platform with the countermeasure
// named by its short name disabled ("none" keeps all of them on).
func CountermeasurePlatform(short string) (*cluster.Platform, error) {
	for _, v := range table2Variants {
		if v.short == short {
			p := cluster.Fugaku()
			v.mutate(p)
			return p, nil
		}
	}
	return nil, fmt.Errorf("core: unknown countermeasure %q (want none|daemons|kworkers|blkmq|pmu|tlbi)", short)
}

// Table2Variant reruns the FWQ experiment with one countermeasure disabled
// ("None" keeps all of them on) — a single row of Table 2.
func Table2Variant(cfg Table2Config, disabled string) (Table2Row, error) {
	var variant *table2Variant
	for i := range table2Variants {
		if table2Variants[i].name == disabled {
			variant = &table2Variants[i]
			break
		}
	}
	if variant == nil {
		return Table2Row{}, fmt.Errorf("core: unknown Table 2 countermeasure %q", disabled)
	}
	p := cluster.Fugaku()
	variant.mutate(p)
	node, err := p.NewNode(cluster.Linux)
	if err != nil {
		return Table2Row{}, err
	}
	fwqCfg := apps.FWQConfig{Work: 6500 * time.Microsecond, Duration: cfg.Duration, Cores: node.AppCores()}
	analyses, _, err := apps.FWQAcrossNodes(fwqCfg, node.Host, cfg.Nodes, cfg.Seed)
	if err != nil {
		return Table2Row{}, err
	}
	merged, err := noise.Merge(analyses)
	if err != nil {
		return Table2Row{}, err
	}
	return Table2Row{
		Disabled: variant.name, MaxNoise: merged.MaxNoise, NoiseRate: merged.Rate,
		Lengths: merged.Lengths,
	}, nil
}

// Table2 reruns the FWQ experiment once per countermeasure, disabling one at
// a time (plus the all-enabled baseline), exactly like Sec. 6.3.
func Table2(cfg Table2Config) ([]Table2Row, error) {
	var rows []Table2Row
	for _, name := range Table2Variants() {
		row, err := Table2Variant(cfg, name)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// --- Figure 4: FWQ latency CDFs -------------------------------------------

// CDFCurve is one curve of Figure 4. The distribution is held in compressed
// form (clean iterations counted, perturbed ones stored) so machine-scale
// node counts stay cheap.
type CDFCurve struct {
	Label string
	Nodes int
	CDF   *noise.IterationDist
}

// Figure4Config parameterizes the CDF experiment. Node counts are
// subsamples of the paper's scales (full Fugaku is 158,976 nodes; simulating
// every node is unnecessary — the per-node statistics are identical and the
// tail grows predictably with sample count, see EXPERIMENTS.md).
type Figure4Config struct {
	OFPNodes        int // paper: 1,024
	FugakuFullNodes int // paper: 158,976 (full scale)
	Fugaku24Racks   int // paper: 9,216 (24 racks)
	Duration        time.Duration
	WorstNodes      int // in-situ selection; paper keeps the 100 worst
	Seed            int64
}

// DefaultFigure4Config returns a laptop-scale subsample configuration.
func DefaultFigure4Config() Figure4Config {
	return Figure4Config{
		OFPNodes: 256, FugakuFullNodes: 1024, Fugaku24Racks: 128,
		Duration: 2 * time.Minute, WorstNodes: 100, Seed: 20211114,
	}
}

// Figure4CurveSpec fully parameterizes one curve of Figure 4 — an
// independent unit of work a sweep campaign can run as its own trial.
type Figure4CurveSpec struct {
	Label      string        `json:"label"`
	Platform   string        `json:"platform"` // "fugaku" or "oakforest-pacs"
	OS         string        `json:"os"`       // "linux" or "mckernel"
	Nodes      int           `json:"nodes"`
	Duration   time.Duration `json:"duration"`
	WorstNodes int           `json:"worst_nodes"`
	Seed       int64         `json:"seed"`
}

// Figure4CurveSpecs expands a Figure4Config into the five curve specs of the
// figure: OFP Linux, OFP McKernel, Fugaku Linux full scale, Fugaku Linux 24
// racks, Fugaku McKernel 24 racks.
func Figure4CurveSpecs(cfg Figure4Config) []Figure4CurveSpec {
	mk := func(label, platform, os string, nodes int) Figure4CurveSpec {
		return Figure4CurveSpec{
			Label: label, Platform: platform, OS: os, Nodes: nodes,
			Duration: cfg.Duration, WorstNodes: cfg.WorstNodes, Seed: cfg.Seed,
		}
	}
	return []Figure4CurveSpec{
		mk("ofp-linux", "oakforest-pacs", "linux", cfg.OFPNodes),
		mk("ofp-mckernel", "oakforest-pacs", "mckernel", cfg.OFPNodes),
		mk("fugaku-linux-full", "fugaku", "linux", cfg.FugakuFullNodes),
		mk("fugaku-linux-24racks", "fugaku", "linux", cfg.Fugaku24Racks),
		mk("fugaku-mckernel-24racks", "fugaku", "mckernel", cfg.Fugaku24Racks),
	}
}

// Figure4Curve computes one curve.
func Figure4Curve(s Figure4CurveSpec) (CDFCurve, error) {
	platform := cluster.OFP()
	if s.Platform == "fugaku" {
		platform = cluster.Fugaku()
	}
	kind := cluster.Linux
	if s.OS == "mckernel" {
		kind = cluster.McKernel
	}
	node, err := platform.NewNode(kind)
	if err != nil {
		return CDFCurve{}, err
	}
	fwqCfg := apps.FWQConfig{Work: 6500 * time.Microsecond, Duration: s.Duration, Cores: node.AppCores()}
	sketches, err := apps.FWQSketchAcrossNodes(fwqCfg, node.OS(), s.Nodes, s.Seed)
	if err != nil {
		return CDFCurve{}, err
	}
	// In-situ selection: keep only the worst nodes' raw data, like the
	// paper's parallel-filesystem-friendly capture (Sec. 6.3).
	analyses := make([]noise.Analysis, len(sketches))
	for i, sk := range sketches {
		analyses[i] = sk.Analysis
	}
	worst := noise.WorstBy(analyses, s.WorstNodes)
	dists := make([]*noise.IterationDist, 0, len(worst))
	for _, idx := range worst {
		dists = append(dists, sketches[idx].Dist)
	}
	return CDFCurve{Label: s.Label, Nodes: s.Nodes, CDF: noise.MergeDists(dists)}, nil
}

// Figure4 produces the five curves of Figure 4.
func Figure4(cfg Figure4Config) ([]CDFCurve, error) {
	var curves []CDFCurve
	for _, s := range Figure4CurveSpecs(cfg) {
		c, err := Figure4Curve(s)
		if err != nil {
			return nil, err
		}
		curves = append(curves, c)
	}
	return curves, nil
}
