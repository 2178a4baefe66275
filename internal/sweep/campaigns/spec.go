package campaigns

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"mkos/internal/apps"
	"mkos/internal/core"
	"mkos/internal/fault"
	"mkos/internal/sweep"
)

// platformName maps the accepted spellings ("ofp", "oakforest-pacs",
// "fugaku") onto the apps-package platform names.
func platformName(s string) apps.PlatformName {
	if strings.HasPrefix(strings.ToLower(s), "fugaku") {
		return apps.OnFugaku
	}
	return apps.OnOFP
}

// DefaultFaultRates is the 1x point of the fault-injection sweep: per-hour
// hazards sized so that a ~quarter-second job on 8 nodes sees a realistic mix
// of clean runs, single faults and repeated faults as intensity grows.
func DefaultFaultRates() fault.Rates {
	return fault.Rates{
		NodeCrashPerHour:   500,
		LWKPanicPerHour:    2000,
		LWKHangPerHour:     1000,
		IHKReserveFailProb: 0.02,
		IKCTimeoutProb:     0.03,
		LWKOOMProb:         0.03,
	}
}

// ScaleRates multiplies every hazard by k, clamping probabilities at 1.
func ScaleRates(r fault.Rates, k float64) fault.Rates {
	prob := func(p float64) float64 {
		p *= k
		if p > 1 {
			return 1
		}
		return p
	}
	return fault.Rates{
		NodeCrashPerHour:   r.NodeCrashPerHour * k,
		LWKPanicPerHour:    r.LWKPanicPerHour * k,
		LWKHangPerHour:     r.LWKHangPerHour * k,
		IHKReserveFailProb: prob(r.IHKReserveFailProb),
		IKCTimeoutProb:     prob(r.IKCTimeoutProb),
		LWKOOMProb:         prob(r.LWKOOMProb),
	}
}

// FaultPoints enumerates the standard degradation sweep: every intensity
// under both kernel configurations, rates scaled from base.
func FaultPoints(platform string, intensities []float64, base fault.Rates, jobs, nodes int, seed int64) []FaultPointSpec {
	var out []FaultPointSpec
	for _, k := range intensities {
		for _, os := range []string{"mckernel", "linux"} {
			out = append(out, FaultPointSpec{
				Platform: platform, OS: os, Intensity: k,
				Rates: ScaleRates(base, k), Jobs: jobs, Nodes: nodes, Seed: seed,
			})
		}
	}
	return out
}

// Spec is the declarative campaign description consumed by cmd/sweep and
// cmd/repro: each present section contributes its trial family to one
// combined campaign. Durations are given in seconds so specs stay plain JSON.
type Spec struct {
	Name string `json:"name"`
	Seed int64  `json:"seed"`

	// Seeds/Runs configure the figure-point trials (Figures/Apps sections):
	// explicit per-run seeds, or a run count seeded from each trial's derived
	// seed when Seeds is empty.
	Seeds []int64 `json:"seeds,omitempty"`
	Runs  int     `json:"runs,omitempty"`

	// Figures lists whole paper figures to regenerate: "5", "6" or "7".
	Figures []string `json:"figures,omitempty"`
	// Apps adds custom application sweeps beyond the stock figures.
	Apps []AppSection `json:"apps,omitempty"`

	Table2      *Table2Section      `json:"table2,omitempty"`
	Figure3     *Figure3Section     `json:"figure3,omitempty"`
	Attribution *AttributionSection `json:"attribution,omitempty"`
	Figure4     *Figure4Section     `json:"figure4,omitempty"`
	Fault       *FaultSection       `json:"fault,omitempty"`
	MachineFWQ  *MachineFWQSection  `json:"machine_fwq,omitempty"`
	Operational *OperationalSection `json:"operational,omitempty"`
}

// AppSection is one custom application sweep panel. A Figure label ("5",
// "6" or "7"; empty means "custom") files it under that paper figure's
// header and trial keys, so a spec can list a subset of a figure's nodes.
type AppSection struct {
	Platform string `json:"platform"` // "ofp"/"oakforest-pacs" or "fugaku"
	App      string `json:"app"`
	Nodes    []int  `json:"nodes"`
	Figure   string `json:"figure,omitempty"`
}

// Table2Section configures the countermeasure matrix; zero fields fall back
// to core.DefaultTable2Config.
type Table2Section struct {
	Nodes           int     `json:"nodes,omitempty"`
	DurationSeconds float64 `json:"duration_seconds,omitempty"`
	Seed            int64   `json:"seed,omitempty"`
}

// Figure3Section configures the noise-length time series: one single-core,
// single-node FWQ run per listed countermeasure (short names, see
// core.Countermeasures). Zero fields default to the published series:
// ["none", "daemons"], 360 s, seed 20211114.
type Figure3Section struct {
	Countermeasures []string `json:"countermeasures,omitempty"`
	DurationSeconds float64  `json:"duration_seconds,omitempty"`
	Seed            int64    `json:"seed,omitempty"`
}

// AttributionSection configures the ftrace-style per-source interference
// attribution on application cores (Sec. 4.2.1). Zero fields default to
// blkmq, 120 s, seed 20211114.
type AttributionSection struct {
	Countermeasure  string  `json:"countermeasure,omitempty"`
	DurationSeconds float64 `json:"duration_seconds,omitempty"`
	Seed            int64   `json:"seed,omitempty"`
}

// Figure4Section configures the noise-CDF curves; zero fields fall back to
// core.DefaultFigure4Config.
type Figure4Section struct {
	OFPNodes        int     `json:"ofp_nodes,omitempty"`
	FugakuFullNodes int     `json:"fugaku_full_nodes,omitempty"`
	Fugaku24Racks   int     `json:"fugaku_24racks,omitempty"`
	DurationSeconds float64 `json:"duration_seconds,omitempty"`
	WorstNodes      int     `json:"worst_nodes,omitempty"`
	Seed            int64   `json:"seed,omitempty"`
	Iterations      int     `json:"iterations,omitempty"`
}

// FaultSection configures the fault-injection degradation sweep.
type FaultSection struct {
	Platform    string    `json:"platform,omitempty"` // default "fugaku"
	Intensities []float64 `json:"intensities,omitempty"`
	Jobs        int       `json:"jobs,omitempty"`
	Nodes       int       `json:"nodes,omitempty"`
	Seed        int64     `json:"seed,omitempty"`
}

// MachineFWQSection configures the Sec. 6.3 full-machine FWQ with in-situ
// worst-node selection; zero fields default to 4096 nodes, 4 s, worst 100.
type MachineFWQSection struct {
	Nodes           int     `json:"nodes,omitempty"`
	DurationSeconds float64 `json:"duration_seconds,omitempty"`
	WorstNodes      int     `json:"worst_nodes,omitempty"`
}

// OperationalSection configures the operational probe of the event-driven
// machinery (see runOperational); Jobs defaults to 6.
type OperationalSection struct {
	Jobs int `json:"jobs,omitempty"`
}

// LoadSpec reads and validates a declarative campaign spec.
func LoadSpec(path string) (*Spec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := ParseSpec(blob)
	if err != nil {
		return nil, fmt.Errorf("campaigns: parsing %s: %w", path, err)
	}
	return s, nil
}

// ParseSpec decodes a declarative campaign spec from raw JSON — the same
// decoding LoadSpec applies to a file, exposed for callers that receive
// specs over the wire (cmd/simd). Unknown fields are rejected, so a
// misspelled section fails instead of silently dropping its trials. The
// defaulted name keeps a nameless spec valid in both paths, and therefore
// keeps the content-hash identity of a submitted spec equal to the identity
// the CLI would compute for the same file.
func ParseSpec(blob []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("campaigns: trailing data after spec")
	}
	if s.Name == "" {
		s.Name = "sweep"
	}
	return &s, nil
}

// Table2Config resolves the section against the paper-scale defaults.
func (t *Table2Section) Table2Config() core.Table2Config {
	cfg := core.DefaultTable2Config()
	if t.Nodes > 0 {
		cfg.Nodes = t.Nodes
	}
	if t.DurationSeconds > 0 {
		cfg.Duration = seconds(t.DurationSeconds)
	}
	if t.Seed != 0 {
		cfg.Seed = t.Seed
	}
	return cfg
}

// Figure4Config resolves the section against the laptop-scale defaults.
func (f *Figure4Section) Figure4Config() core.Figure4Config {
	cfg := core.DefaultFigure4Config()
	if f.OFPNodes > 0 {
		cfg.OFPNodes = f.OFPNodes
	}
	if f.FugakuFullNodes > 0 {
		cfg.FugakuFullNodes = f.FugakuFullNodes
	}
	if f.Fugaku24Racks > 0 {
		cfg.Fugaku24Racks = f.Fugaku24Racks
	}
	if f.DurationSeconds > 0 {
		cfg.Duration = seconds(f.DurationSeconds)
	}
	if f.WorstNodes > 0 {
		cfg.WorstNodes = f.WorstNodes
	}
	if f.Seed != 0 {
		cfg.Seed = f.Seed
	}
	return cfg
}

func (f *Figure4Section) iterations() int {
	if f.Iterations < 1 {
		return 1
	}
	return f.Iterations
}

// resolved returns the section with every zero field at its default.
func (f FaultSection) resolved() FaultSection {
	if f.Platform == "" {
		f.Platform = "fugaku"
	}
	if len(f.Intensities) == 0 {
		f.Intensities = []float64{0, 0.5, 1, 2, 4}
	}
	if f.Jobs <= 0 {
		f.Jobs = 6
	}
	if f.Nodes <= 0 {
		f.Nodes = 8
	}
	if f.Seed == 0 {
		f.Seed = 42
	}
	return f
}

// FaultSpecs resolves the section into concrete sweep points.
func (f *FaultSection) FaultSpecs() []FaultPointSpec {
	r := f.resolved()
	return FaultPoints(r.Platform, r.Intensities, DefaultFaultRates(), r.Jobs, r.Nodes, r.Seed)
}

// resolved returns the section with every zero field at its default.
func (f Figure3Section) resolved() Figure3Section {
	if len(f.Countermeasures) == 0 {
		f.Countermeasures = []string{"none", "daemons"}
	}
	if f.DurationSeconds <= 0 {
		f.DurationSeconds = 360
	}
	if f.Seed == 0 {
		f.Seed = noiseSeed
	}
	return f
}

// resolved returns the section with every zero field at its default.
func (a AttributionSection) resolved() AttributionSection {
	if a.Countermeasure == "" {
		a.Countermeasure = "blkmq"
	}
	if a.DurationSeconds <= 0 {
		a.DurationSeconds = 120
	}
	if a.Seed == 0 {
		a.Seed = noiseSeed
	}
	return a
}

// noiseSeed is the default seed of the single-node noise experiments.
const noiseSeed = 20211114

// seconds converts a spec duration to a time.Duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// checkCountermeasures rejects unknown and repeated short names up front, so
// a bad spec fails before any trial runs.
func checkCountermeasures(cms ...string) error {
	known := core.Countermeasures()
	for i, cm := range cms {
		if !slices.Contains(known, cm) {
			return fmt.Errorf("campaigns: unknown countermeasure %q (want one of %v)", cm, known)
		}
		if slices.Contains(cms[:i], cm) {
			return fmt.Errorf("campaigns: countermeasure %q listed twice", cm)
		}
	}
	return nil
}

// FigureSpecs expands the Figures and Apps sections into figure panels, in
// spec order.
func (s *Spec) FigureSpecs() ([]core.FigureSpec, error) {
	var figSpecs []core.FigureSpec
	for _, f := range s.Figures {
		panels, ok := paperFigures[f]
		if !ok {
			return nil, fmt.Errorf("campaigns: unknown figure %q (want 5, 6 or 7)", f)
		}
		figSpecs = append(figSpecs, panels()...)
	}
	for _, a := range s.Apps {
		if _, ok := paperFigures[a.Figure]; !ok && a.Figure != "" {
			return nil, fmt.Errorf("campaigns: app %s: unknown figure %q (want 5, 6, 7 or none)", a.App, a.Figure)
		}
		figSpecs = append(figSpecs, core.FigureSpec{
			Figure: cmp.Or(a.Figure, "custom"), Platform: platformName(a.Platform), App: a.App, Nodes: a.Nodes,
		})
	}
	return figSpecs, nil
}

// paperFigures maps each paper figure label to its panels.
var paperFigures = map[string]func() []core.FigureSpec{
	"5": core.Figure5Specs, "6": core.Figure6Specs, "7": core.Figure7Specs,
}

// Campaign builds the combined campaign the spec describes. Trial keys are
// namespaced per family, so the sections coexist in one trial matrix.
func (s *Spec) Campaign() (*sweep.Campaign, error) {
	c := &sweep.Campaign{Name: s.Name, Seed: s.Seed}

	// Zero selects a default; a negative size is a typo, rejected before
	// any trial runs.
	if m := s.MachineFWQ; m != nil && (m.Nodes < 0 || m.DurationSeconds < 0 || m.WorstNodes < 0) {
		return nil, fmt.Errorf("campaigns: machine_fwq: negative nodes, duration_seconds or worst_nodes in %+v", *m)
	}
	if o := s.Operational; o != nil && o.Jobs < 0 {
		return nil, fmt.Errorf("campaigns: operational: negative jobs %d", o.Jobs)
	}
	figSpecs, err := s.FigureSpecs()
	if err != nil {
		return nil, err
	}
	if len(figSpecs) > 0 {
		fc, err := FigurePoints(s.Name, figSpecs, s.Seeds, s.Runs, s.Seed)
		if err != nil {
			return nil, err
		}
		c.Trials = append(c.Trials, fc.Trials...)
	}
	if s.Table2 != nil {
		c.Trials = append(c.Trials, Table2(s.Table2.Table2Config(), s.Seed).Trials...)
	}
	if s.Figure3 != nil {
		f3 := s.Figure3.resolved()
		if err := checkCountermeasures(f3.Countermeasures...); err != nil {
			return nil, err
		}
		c.Trials = append(c.Trials, Figure3(f3.Countermeasures, seconds(f3.DurationSeconds), f3.Seed, s.Seed).Trials...)
	}
	if s.Attribution != nil {
		a := s.Attribution.resolved()
		if err := checkCountermeasures(a.Countermeasure); err != nil {
			return nil, err
		}
		c.Trials = append(c.Trials, Attribution(a.Countermeasure, seconds(a.DurationSeconds), a.Seed, s.Seed).Trials...)
	}
	if s.Figure4 != nil {
		f4 := Figure4(s.Figure4.Figure4Config(), s.Figure4.iterations(), s.Seed)
		c.Trials = append(c.Trials, f4.Trials...)
	}
	if s.Fault != nil {
		c.Trials = append(c.Trials, FaultSweep(s.Name, s.Fault.FaultSpecs(), s.Seed).Trials...)
	}
	if m := s.MachineFWQ; m != nil {
		ms := MachineFWQSection{Nodes: cmp.Or(m.Nodes, 4096), DurationSeconds: cmp.Or(m.DurationSeconds, 4),
			WorstNodes: cmp.Or(m.WorstNodes, 100)}
		c.Trials = append(c.Trials, sweep.Trial{Key: MachineFWQKey, Spec: ms,
			Run: func(t *sweep.T) (any, error) { return runMachineFWQ(t, ms) }})
	}
	if s.Operational != nil {
		op := OperationalSection{Jobs: cmp.Or(s.Operational.Jobs, 6)}
		c.Trials = append(c.Trials, sweep.Trial{Key: OperationalKey, Spec: op,
			Run: func(t *sweep.T) (any, error) { return runOperational(t, op.Jobs) }})
	}
	if len(c.Trials) == 0 {
		return nil, fmt.Errorf("campaigns: spec %q enumerates no trials", s.Name)
	}
	return c, nil
}
