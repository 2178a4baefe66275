package apps

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"mkos/internal/noise"
	"mkos/internal/shard"
	"mkos/internal/sim"
	"mkos/internal/telemetry"
)

// This file is the full-machine FWQ campaign of Sec. 6.3, restaged on the
// sharded runner: every node of the cluster runs the benchmark as one
// discrete event, reduces its result to a compact digest in situ, and ships
// the digest over the interconnect to a collector node — exactly the
// worst-100-of-158,976 selection the paper performed on Fugaku to avoid
// writing 159k raw FWQ traces to the parallel filesystem. Only after the
// in-situ selection are the worst nodes re-run with full per-iteration
// recording.
//
// Everything here is inside the determinism boundary: with the same seed
// the result is byte-identical at any shard count. Per-node RNG streams
// follow the Skip/DeriveSeed discipline, digests arrive at the collector
// in the runner's canonical order, and nothing partition-dependent (shard
// count, cross-shard traffic) appears in the result.

// FWQClass is one node-population class: the cores the benchmark measures
// and the OS noise profile driving them. Fugaku has two (50-core and
// 52-core nodes); booting one OS per class instead of one per node is what
// makes 158,976-node runs fit in memory.
type FWQClass struct {
	Cores   []int
	Profile *noise.Profile
}

// FWQMachineConfig configures a sharded full-machine FWQ run.
type FWQMachineConfig struct {
	// Work and Duration are the per-iteration quantum and the benchmark
	// length, as in FWQConfig.
	Work     time.Duration
	Duration time.Duration

	Nodes int
	Seed  int64

	// Shards is the conservative-parallel shard count. It changes wall-clock
	// time only, never the result.
	Shards int

	// WorstK is how many worst nodes (by total noise) are re-run with full
	// per-iteration recording after the in-situ selection. The paper keeps
	// the worst 100.
	WorstK int

	// Lookahead is the conservative window bound, normally the fabric's
	// MinLatency. Digest reports are clamped to at least this latency.
	Lookahead time.Duration

	// Classes and ClassOf describe the node population. ClassOf nil means
	// every node is Classes[0].
	Classes []FWQClass
	ClassOf func(node int) int

	// ReportLatency models the digest's trip to the collector (node 0):
	// routed hop latency on Tofu, uniform point-to-point otherwise. Nil
	// means exactly Lookahead. Must never undercut Lookahead; values below
	// it are clamped.
	ReportLatency func(src, dst int, bytes int64) (time.Duration, error)

	// DigestBytes is the modeled wire size of one digest message.
	// Zero means 64.
	DigestBytes int64

	Cancel   func() bool
	Observer shard.Observer
}

// FWQDigest is the compact per-node summary a node reduces its run to
// before shipping it to the collector: the Sec. 6.3 metrics without the
// O(iterations) length series.
type FWQDigest struct {
	Node         int     `json:"node"`
	N            int     `json:"n"`
	TminNS       int64   `json:"tmin_ns"`
	TmaxNS       int64   `json:"tmax_ns"`
	MaxNoiseNS   int64   `json:"max_noise_ns"`
	TotalNoiseNS int64   `json:"total_noise_ns"`
	Rate         float64 `json:"rate"`
}

// FWQWorstNode is one of the worst-K nodes after the full re-run: the
// digest it reported in situ plus iteration-time quantiles from the
// complete per-iteration data, the raw material of Figure 3.
type FWQWorstNode struct {
	Node   int       `json:"node"`
	Class  int       `json:"class"`
	Digest FWQDigest `json:"digest"`
	P50NS  int64     `json:"p50_ns"`
	P90NS  int64     `json:"p90_ns"`
	P99NS  int64     `json:"p99_ns"`
	P999NS int64     `json:"p999_ns"`
	MaxNS  int64     `json:"max_ns"`
}

// FWQMachineResult is the deterministic artifact of a full-machine run.
// It deliberately excludes the shard count and all partition-dependent
// statistics; Windows is included because the window schedule is specified
// to be shard-count invariant.
type FWQMachineResult struct {
	Nodes      int            `json:"nodes"`
	Seed       int64          `json:"seed"`
	WorkNS     int64          `json:"work_ns"`
	DurationNS int64          `json:"duration_ns"`
	Windows    int            `json:"windows"`
	Summary    FWQDigest      `json:"summary"`
	Worst      []FWQWorstNode `json:"worst"`
	Digests    []FWQDigest    `json:"digests"`
}

// ErrBadMachineConfig reports an unusable full-machine configuration.
var ErrBadMachineConfig = errors.New("apps: invalid FWQ machine configuration")

// fwqMachineModel is the shard.Model behind FWQMachine. The digests slice
// is written only from Deliver, which the runner executes solely on the
// goroutine of the shard owning node 0.
type fwqMachineModel struct {
	cfg     FWQMachineConfig
	classOf func(int) int
	report  func(src, dst int, bytes int64) (time.Duration, error)
	digests []FWQDigest
	got     int
}

func (m *fwqMachineModel) Setup(s *shard.Shard) error {
	base := sim.NewRand(m.cfg.Seed)
	base.Skip(s.Nodes.Lo)
	at := sim.Time(m.cfg.Duration)
	// The node events publish into the shard's own sink, through one set
	// of counter handles per class.
	counters := make([]*noise.Counters, len(m.cfg.Classes))
	for n := s.Nodes.Lo; n < s.Nodes.Hi; n++ {
		seed := base.DeriveSeed(int64(n))
		cls := m.classOf(n)
		if cls < 0 || cls >= len(m.cfg.Classes) {
			return fmt.Errorf("%w: node %d maps to class %d of %d",
				ErrBadMachineConfig, n, cls, len(m.cfg.Classes))
		}
		node, class := n, m.cfg.Classes[cls]
		if counters[cls] == nil {
			counters[cls] = class.Profile.Counters(s.Sink)
		}
		c := counters[cls]
		s.Engine.ScheduleAt(at, "fwq-node", func(e *sim.Engine) {
			// The node's whole benchmark collapses into this one event: it
			// fires at the instant the run completes, builds the timeline
			// from the node's derived stream, sketches the iterations and
			// reports the digest. A failure is a typed panic the runner
			// converts into a shard error.
			tl := class.Profile.TimelineTo(c, m.cfg.Duration, sim.NewRand(seed))
			sk, err := RunFWQSketch(FWQConfig{
				Work: m.cfg.Work, Duration: m.cfg.Duration, Cores: class.Cores,
			}, tl)
			if err != nil {
				panic(fmt.Errorf("fwq machine: node %d: %w", node, err))
			}
			lat, err := m.report(node, 0, m.cfg.DigestBytes)
			if err != nil {
				panic(fmt.Errorf("fwq machine: node %d report: %w", node, err))
			}
			if lat < m.cfg.Lookahead {
				lat = m.cfg.Lookahead
			}
			s.Send(node, 0, e.Now().Add(lat), "fwq-digest", digestOf(node, sk.Analysis))
		})
	}
	return nil
}

func (m *fwqMachineModel) Deliver(s *shard.Shard, msg shard.Message) {
	d := msg.Payload.(FWQDigest)
	m.digests[d.Node] = d
	m.got++
	s.Sink.Registry().Counter("fwq.machine.digests").Inc()
}

// digestOf reduces an analysis to its scalar digest. The total is the sum
// of per-iteration noise lengths — the quantity WorstBy ranks on.
func digestOf(node int, a noise.Analysis) FWQDigest {
	var total time.Duration
	for _, l := range a.Lengths {
		total += l
	}
	return FWQDigest{
		Node: node, N: a.N,
		TminNS: int64(a.Tmin), TmaxNS: int64(a.Tmax),
		MaxNoiseNS: int64(a.MaxNoise), TotalNoiseNS: int64(total),
		Rate: a.Rate,
	}
}

// FWQMachine runs the full-machine campaign: the sharded sweep, the in-situ
// worst-K selection, and the sequential full re-run of the selected nodes.
// It is the ctx-free convenience form of FWQMachineContext; cancellation,
// if any, arrives through cfg.Cancel.
func FWQMachine(cfg FWQMachineConfig) (*FWQMachineResult, *shard.Result, error) {
	return FWQMachineContext(context.Background(), cfg)
}

// FWQMachineContext is FWQMachine with caller cancellation: ending ctx
// stops the sharded run cooperatively (merged with cfg.Cancel, exactly as
// shard.RunContext does). The shard.Result is returned alongside for
// callers that want the fold of the per-shard registries or the runner
// statistics; nothing in it beyond Windows may enter a byte-compared
// artifact.
func FWQMachineContext(ctx context.Context, cfg FWQMachineConfig) (*FWQMachineResult, *shard.Result, error) {
	if cfg.Work <= 0 || cfg.Duration <= 0 || cfg.Nodes <= 0 || len(cfg.Classes) == 0 {
		return nil, nil, ErrBadMachineConfig
	}
	for i, c := range cfg.Classes {
		if len(c.Cores) == 0 || c.Profile == nil {
			return nil, nil, fmt.Errorf("%w: class %d incomplete", ErrBadMachineConfig, i)
		}
	}
	if cfg.WorstK < 0 {
		return nil, nil, ErrBadMachineConfig
	}
	if cfg.WorstK > cfg.Nodes {
		cfg.WorstK = cfg.Nodes
	}
	if cfg.DigestBytes <= 0 {
		cfg.DigestBytes = 64
	}
	m := &fwqMachineModel{
		cfg:     cfg,
		classOf: cfg.ClassOf,
		report:  cfg.ReportLatency,
		digests: make([]FWQDigest, cfg.Nodes),
	}
	if m.classOf == nil {
		m.classOf = func(int) int { return 0 }
	}
	if m.report == nil {
		m.report = func(int, int, int64) (time.Duration, error) { return cfg.Lookahead, nil }
	}
	sres, err := shard.RunContext(ctx, shard.Config{
		Nodes: cfg.Nodes, Shards: cfg.Shards, Lookahead: cfg.Lookahead,
		Cancel: cfg.Cancel, Observer: cfg.Observer,
	}, m)
	if err != nil {
		return nil, sres, err
	}
	if m.got != cfg.Nodes {
		return nil, sres, fmt.Errorf("fwq machine: collector received %d of %d digests", m.got, cfg.Nodes)
	}
	res := &FWQMachineResult{
		Nodes: cfg.Nodes, Seed: cfg.Seed,
		WorkNS: int64(cfg.Work), DurationNS: int64(cfg.Duration),
		Windows: sres.Stats.Windows,
		Summary: summarize(m.digests),
		Digests: m.digests,
		Worst:   []FWQWorstNode{},
	}
	counters := make([]*noise.Counters, len(cfg.Classes))
	sink := telemetry.Default()
	for _, n := range worstNodes(m.digests, cfg.WorstK) {
		cls := m.classOf(n)
		if counters[cls] == nil {
			counters[cls] = cfg.Classes[cls].Profile.Counters(sink)
		}
		w, err := rerunWorst(cfg, cls, counters[cls], n, m.digests[n])
		if err != nil {
			return nil, sres, err
		}
		res.Worst = append(res.Worst, w)
	}
	return res, sres, nil
}

// summarize merges the per-node digests into the machine-level view, the
// digest analogue of noise.Merge: global extrema, sample-weighted rate.
func summarize(ds []FWQDigest) FWQDigest {
	out := FWQDigest{Node: -1, TminNS: ds[0].TminNS, TmaxNS: ds[0].TmaxNS}
	var rateWeighted float64
	for _, d := range ds {
		out.N += d.N
		out.TotalNoiseNS += d.TotalNoiseNS
		if d.TminNS < out.TminNS {
			out.TminNS = d.TminNS
		}
		if d.TmaxNS > out.TmaxNS {
			out.TmaxNS = d.TmaxNS
		}
		rateWeighted += d.Rate * float64(d.N)
	}
	out.MaxNoiseNS = out.TmaxNS - out.TminNS
	if out.N > 0 {
		out.Rate = rateWeighted / float64(out.N)
	}
	return out
}

// worstNodes ranks nodes by total noise, descending, ties to the lower
// index — the same ordering noise.WorstBy produces.
func worstNodes(ds []FWQDigest, k int) []int {
	idx := make([]int, len(ds))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return ds[idx[a]].TotalNoiseNS > ds[idx[b]].TotalNoiseNS
	})
	return idx[:k]
}

// rerunWorst replays one selected node with full per-iteration recording.
// Skip(node) advances the base generator exactly as the node's predecessors
// did in the sequential derivation, so the re-run sees the identical
// timeline the sketch summarized. Its timeline publishes into c, the
// counters of the node's class cls.
func rerunWorst(cfg FWQMachineConfig, cls int, c *noise.Counters, node int, d FWQDigest) (FWQWorstNode, error) {
	class := cfg.Classes[cls]
	base := sim.NewRand(cfg.Seed)
	base.Skip(node)
	tl := class.Profile.TimelineTo(c, cfg.Duration, sim.NewRand(base.DeriveSeed(int64(node))))
	run, err := RunFWQ(FWQConfig{Work: cfg.Work, Duration: cfg.Duration, Cores: class.Cores}, tl)
	if err != nil {
		return FWQWorstNode{}, fmt.Errorf("fwq machine: re-running node %d: %w", node, err)
	}
	iters := run.AllIterations()
	if len(iters) != d.N {
		return FWQWorstNode{}, fmt.Errorf("fwq machine: node %d re-run saw %d iterations, digest says %d",
			node, len(iters), d.N)
	}
	sort.Slice(iters, func(a, b int) bool { return iters[a] < iters[b] })
	q := func(p float64) int64 {
		return int64(iters[int(p*float64(len(iters)-1))])
	}
	return FWQWorstNode{
		Node: node, Class: cls, Digest: d,
		P50NS: q(0.50), P90NS: q(0.90), P99NS: q(0.99), P999NS: q(0.999),
		MaxNS: int64(iters[len(iters)-1]),
	}, nil
}
