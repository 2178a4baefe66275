package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"sort"
	"strings"
	"time"

	"mkos/internal/apps"
	"mkos/internal/cluster"
	"mkos/internal/shard"
	"mkos/internal/sweep"
	"mkos/internal/sweep/campaigns"
)

// workload is one generated input set. setup turns the seed into a ready
// instance; it is what setup_s times.
type workload struct {
	name  string
	setup func(seed int64) (*instance, error)
}

// instance is a set-up workload.
type instance struct {
	// ops is the number of operations one timed call attempts: one per
	// campaign trial, or one for the machine run.
	ops int
	// run is the timed call.
	run func(ctx context.Context) (*output, error)
	// traced replays run with its trial bodies expanded into the layers'
	// public functions, recording spans and replay inputs into rec. Its
	// output must equal run's.
	traced func(ctx context.Context, rec *recorder) (*output, error)
}

// output is what one call produced, reduced to what the benchmark checks.
type output struct {
	// digest hashes the whole deterministic output: every trial result
	// (payload, metrics snapshot, error) plus the merged metrics dump, or
	// the machine run's result JSON.
	digest string
	// opDigests hashes each operation's output in key order; "" marks an
	// operation that failed.
	opDigests []string
	// outcome is set for campaign workloads, shard for the machine run.
	outcome *sweep.Outcome
	shard   *shard.Result
}

// Workloads. The reasons each exists are in BENCHMARK.json; the sizes keep
// one timed call at a few seconds on a 2-core host, so a 10-second run
// takes several calls and reports their median.
var workloads = map[string]workload{
	"app_points":  {"app_points", setupAppPoints},
	"fwq_cdf":     {"fwq_cdf", setupFWQCDF},
	"fault_batch": {"fault_batch", setupFaultBatch},
	"machine_fwq": {"machine_fwq", setupMachineFWQ},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// appPanels are the nine stock Figure 5-7 panels, each at one mid-scale node
// count. The counts keep the slowest trial near the mean so the pool tail
// stays short.
var appPanels = []campaigns.AppSection{
	{Platform: "ofp", App: "AMG2013", Nodes: []int{64}},
	{Platform: "ofp", App: "Milc", Nodes: []int{64}},
	{Platform: "ofp", App: "Lulesh", Nodes: []int{64}},
	{Platform: "ofp", App: "LQCD", Nodes: []int{64}},
	{Platform: "ofp", App: "GeoFEM", Nodes: []int{64}},
	{Platform: "ofp", App: "GAMERA", Nodes: []int{64}},
	{Platform: "fugaku", App: "LQCD", Nodes: []int{512}},
	{Platform: "fugaku", App: "GeoFEM", Nodes: []int{512}},
	{Platform: "fugaku", App: "GAMERA", Nodes: []int{512}},
}

func setupAppPoints(seed int64) (*instance, error) {
	return sweepInstance(campaigns.Spec{
		Name: "app_points", Seed: seed, Seeds: []int64{seed}, Apps: appPanels,
	})
}

func setupFWQCDF(seed int64) (*instance, error) {
	return sweepInstance(campaigns.Spec{
		Name: "fwq_cdf", Seed: seed,
		Table2: &campaigns.Table2Section{Nodes: 4, DurationSeconds: 20, Seed: seed},
		Figure4: &campaigns.Figure4Section{
			OFPNodes: 8, FugakuFullNodes: 8, Fugaku24Racks: 4, DurationSeconds: 5,
			WorstNodes: 4, Seed: seed, Iterations: 4,
		},
	})
}

// faultIntensities are finely spaced so that the trials are alike: the
// campaign's cost is many similar recovery simulations, not one outlier.
func faultIntensities() []float64 {
	var out []float64
	for k := 5; k <= 20; k++ {
		out = append(out, float64(k)/10)
	}
	return out
}

// setupFaultBatch enumerates the degradation sweep on Fugaku, both OSes.
// Each point gets its own fault seed, derived from the workload seed, so
// the points' fault draws are independent and the campaign's total work
// varies little from seed to seed.
func setupFaultBatch(seed int64) (*instance, error) {
	points := campaigns.FaultPoints("fugaku", faultIntensities(), campaigns.DefaultFaultRates(), 40, 8, seed)
	for i := range points {
		points[i].Seed = sweep.DeriveSeed(seed, campaigns.FaultKey(points[i]))
	}
	return newSweepInstance(campaigns.FaultSweep("fault_batch", points, seed)), nil
}

// sweepInstance generates a campaign spec the way a user writes one (JSON),
// parses and enumerates it.
func sweepInstance(s campaigns.Spec) (*instance, error) {
	blob, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	spec, err := campaigns.ParseSpec(blob)
	if err != nil {
		return nil, err
	}
	c, err := spec.Campaign()
	if err != nil {
		return nil, err
	}
	return newSweepInstance(c), nil
}

// newSweepInstance times sweep.RunContext over c with one worker per CPU
// and no cache.
func newSweepInstance(c *sweep.Campaign) *instance {
	opts := sweep.Options{Workers: runtime.NumCPU()}
	return &instance{
		ops: len(c.Trials),
		run: func(ctx context.Context) (*output, error) {
			o, err := sweep.RunContext(ctx, c, opts)
			if err != nil {
				return nil, err
			}
			return sweepOutput(o)
		},
		traced: func(ctx context.Context, rec *recorder) (*output, error) {
			rc, err := expandCampaign(ctx, c, rec)
			if err != nil {
				return nil, err
			}
			o, err := sweep.RunContext(ctx, rc, opts)
			if err != nil {
				return nil, err
			}
			return sweepOutput(o)
		},
	}
}

func sweepOutput(o *sweep.Outcome) (*output, error) {
	out := &output{outcome: o}
	h := sha256.New()
	for _, r := range o.Results {
		blob, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		h.Write(blob)
		d := ""
		if r.Err == "" {
			d = hashOf(blob)
		}
		out.opDigests = append(out.opDigests, d)
	}
	if _, err := o.Registry.WriteTo(h); err != nil {
		return nil, err
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	return out, nil
}

// Machine-run parameters: tens of thousands of Fugaku nodes under Linux,
// the paper's 6.5 ms FWQ quantum, in-situ worst-100 selection.
const (
	machineNodes    = 16384
	machineDuration = time.Second
	machineWorstK   = 100
	fwqWork         = 6500 * time.Microsecond
)

func setupMachineFWQ(seed int64) (*instance, error) {
	cfg, err := machineConfig(seed, runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	return &instance{
		ops: 1,
		run: func(context.Context) (*output, error) {
			res, sres, err := apps.FWQMachine(cfg)
			if err != nil {
				return nil, err
			}
			return machineOutput(res, sres)
		},
		traced: func(ctx context.Context, rec *recorder) (*output, error) {
			return tracedMachine(ctx, cfg, rec)
		},
	}, nil
}

// machineConfig boots the node classes of a Fugaku Linux machine run.
func machineConfig(seed int64, shards int) (apps.FWQMachineConfig, error) {
	return cluster.Fugaku().MachineFWQ(cluster.Linux, machineNodes, fwqWork, machineDuration,
		seed, shards, machineWorstK)
}

func machineOutput(res *apps.FWQMachineResult, sres *shard.Result) (*output, error) {
	blob, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	d := hashOf(blob)
	return &output{digest: d, opDigests: []string{d}, shard: sres}, nil
}

func hashOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
