package campaigns_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"slices"
	"testing"
	"time"

	"mkos/internal/apps"
	"mkos/internal/cluster"
	"mkos/internal/core"
	"mkos/internal/fault"
	"mkos/internal/linux"
	"mkos/internal/sweep"
	"mkos/internal/sweep/campaigns"
)

// runArtifacts executes the campaign and renders its deterministic surfaces.
func runArtifacts(t *testing.T, c *sweep.Campaign, workers int) ([]byte, *sweep.Outcome) {
	t.Helper()
	o, err := sweep.Run(c, sweep.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.FirstErr(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	blob, err := json.Marshal(o.Results)
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(blob)
	if _, err := o.Registry.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), o
}

// smallFigure4 keeps the real-simulation determinism test fast.
func smallFigure4() core.Figure4Config {
	return core.Figure4Config{
		OFPNodes: 6, FugakuFullNodes: 8, Fugaku24Racks: 4,
		Duration: 3 * time.Second, WorstNodes: 4, Seed: 20211114,
	}
}

// TestFigure4CampaignMatchesSerial: the campaign path must reproduce the
// serial core.Figure4 curves exactly (same labels, tails and CDF points).
func TestFigure4CampaignMatchesSerial(t *testing.T) {
	cfg := smallFigure4()
	serial, err := core.Figure4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, o := runArtifacts(t, campaigns.Figure4(cfg, 1, 1), 4)
	merged, err := campaigns.MergeFigure4(o, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != len(serial) {
		t.Fatalf("curve count %d, want %d", len(merged), len(serial))
	}
	for i := range serial {
		if merged[i].Label != serial[i].Label || merged[i].Nodes != serial[i].Nodes {
			t.Fatalf("curve %d = %s/%d, want %s/%d", i,
				merged[i].Label, merged[i].Nodes, serial[i].Label, serial[i].Nodes)
		}
		if merged[i].CDF.Max() != serial[i].CDF.Max() || merged[i].CDF.N() != serial[i].CDF.N() {
			t.Fatalf("curve %s diverged from serial: max %g/%g n %d/%d", merged[i].Label,
				merged[i].CDF.Max(), serial[i].CDF.Max(), merged[i].CDF.N(), serial[i].CDF.N())
		}
	}
}

// TestRealCampaignDeterministicAcrossWorkers runs real simulation trials
// (Figure 4 iterations, a fault sweep, Figure 3 series and the attribution
// report) from one spec at -j 1, at -j 4 and from a warm cache, and requires
// byte-identical merged results, telemetry and composed report.
func TestRealCampaignDeterministicAcrossWorkers(t *testing.T) {
	spec, err := campaigns.ParseSpec([]byte(`{
		"name": "mixed", "seed": 7,
		"figure4": {"ofp_nodes": 6, "fugaku_full_nodes": 8, "fugaku_24racks": 4,
			"duration_seconds": 3, "worst_nodes": 4, "seed": 20211114, "iterations": 2},
		"fault": {"platform": "fugaku", "intensities": [1], "jobs": 2, "nodes": 4, "seed": 42},
		"figure3": {"countermeasures": ["daemons", "none"], "duration_seconds": 2},
		"attribution": {"countermeasure": "pmu", "duration_seconds": 1}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cacheDir := t.TempDir()
	run := func(workers int, cache string) ([]byte, *sweep.Outcome) {
		c, err := spec.Campaign()
		if err != nil {
			t.Fatal(err)
		}
		o, err := sweep.Run(c, sweep.Options{Workers: workers, CacheDir: cache})
		if err != nil {
			t.Fatal(err)
		}
		if err := o.FirstErr(); err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(o.Results)
		if err != nil {
			t.Fatal(err)
		}
		buf := bytes.NewBuffer(blob)
		if _, err := o.Registry.WriteTo(buf); err != nil {
			t.Fatal(err)
		}
		report, err := spec.Report(o)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(report)
		return buf.Bytes(), o
	}
	a1, _ := run(1, "")
	a4, _ := run(4, cacheDir)
	warm, o := run(4, cacheDir)
	if !bytes.Equal(a1, a4) {
		t.Fatalf("-j 4 real-simulation artifacts differ from -j 1 (len %d vs %d)", len(a1), len(a4))
	}
	if !bytes.Equal(a1, warm) {
		t.Fatalf("warm-cache artifacts differ from -j 1 (len %d vs %d)", len(warm), len(a1))
	}
	if o.Executed != 0 {
		t.Fatalf("warm-cache run executed %d trials, want 0", o.Executed)
	}
}

// TestFigurePointsMatchSerialSweep: a figure campaign's points must equal
// core.Sweep's serial output, including the skip of oversize node counts.
func TestFigurePointsMatchSerialSweep(t *testing.T) {
	specs := []core.FigureSpec{
		{Figure: "6", Platform: apps.OnOFP, App: "LQCD", Nodes: []int{8, 16, 4096}}, // 4096 > LQCD max
	}
	seeds := []int64{1}
	c, err := campaigns.FigurePoints("figs", specs, seeds, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Trials) != 2 {
		t.Fatalf("enumerated %d trials, want 2 (oversize point skipped)", len(c.Trials))
	}
	_, o := runArtifacts(t, c, 4)
	for _, spec := range specs {
		serial, err := core.RunFigure(spec, seeds)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range serial {
			var got core.Comparison
			key := campaigns.FigurePointKey(spec.Figure, string(spec.Platform), spec.App, want.Nodes)
			if err := o.Payload(key, &got); err != nil {
				t.Fatal(err)
			}
			if got.Relative != want.Relative || got.LinuxRuntime != want.LinuxRuntime {
				t.Fatalf("%s: campaign %+v != serial %+v", key, got, want)
			}
		}
	}
}

// TestFaultPointMatchesSerialReport: the campaign's per-point failure report
// must be byte-identical to a direct serial run with the same parameters.
func TestFaultPointMatchesSerialReport(t *testing.T) {
	spec := campaigns.FaultPointSpec{
		Platform: "fugaku", OS: "mckernel", Intensity: 2,
		Rates: fault.Rates{
			NodeCrashPerHour: 1000, LWKPanicPerHour: 4000, LWKHangPerHour: 2000,
			IHKReserveFailProb: 0.04, IKCTimeoutProb: 0.06, LWKOOMProb: 0.06,
		},
		Jobs: 3, Nodes: 4, Seed: 42,
	}
	c := campaigns.FaultSweep("fault", []campaigns.FaultPointSpec{spec}, 1)
	_, o := runArtifacts(t, c, 2)
	var got campaigns.FaultPointResult
	if err := o.Payload(campaigns.FaultKey(spec), &got); err != nil {
		t.Fatal(err)
	}
	_, o2 := runArtifacts(t, campaigns.FaultSweep("fault", []campaigns.FaultPointSpec{spec}, 1), 1)
	var again campaigns.FaultPointResult
	if err := o2.Payload(campaigns.FaultKey(spec), &again); err != nil {
		t.Fatal(err)
	}
	if got.Text != again.Text {
		t.Fatalf("failure report not reproducible:\n%s\nvs\n%s", got.Text, again.Text)
	}
	if got.Report.Jobs != spec.Jobs {
		t.Fatalf("report jobs = %d, want %d", got.Report.Jobs, spec.Jobs)
	}
}

// TestFigure3CampaignMatchesSerial: each Figure 3 trial must equal a direct
// single-core, single-node FWQ run with the countermeasure's tuning switch
// turned off by hand.
func TestFigure3CampaignMatchesSerial(t *testing.T) {
	const dur, seed = 3 * time.Second, 20211114
	_, o := runArtifacts(t, campaigns.Figure3([]string{"none", "daemons"}, dur, seed, 1), 2)
	for cm, mutate := range map[string]func(*cluster.Platform){
		"none":    func(*cluster.Platform) {},
		"daemons": func(p *cluster.Platform) { p.Tuning.Counter.BindDaemons = false },
	} {
		p := cluster.Fugaku()
		mutate(p)
		node, err := p.NewNode(cluster.Linux)
		if err != nil {
			t.Fatal(err)
		}
		cfg := apps.FWQConfig{Work: 6500 * time.Microsecond, Duration: dur, Cores: node.AppCores()[:1]}
		analyses, _, err := apps.FWQAcrossNodes(cfg, node.Host, 1, seed)
		if err != nil {
			t.Fatal(err)
		}
		var got []time.Duration
		if err := o.Payload(campaigns.Figure3Key(cm), &got); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, analyses[0].Lengths) {
			t.Fatalf("%s: campaign series (%d samples) differs from serial (%d samples)",
				cm, len(got), len(analyses[0].Lengths))
		}
	}
}

// TestAttributionCampaignMatchesSerial: the attribution trial must equal a
// direct AttributeProfile call on a node with blk-mq workers unbound.
func TestAttributionCampaignMatchesSerial(t *testing.T) {
	const dur, seed = 2 * time.Second, 20211114
	_, o := runArtifacts(t, campaigns.Attribution("blkmq", dur, seed, 1), 1)
	p := cluster.Fugaku()
	p.Tuning.Counter.BindBlkMQ = false
	node, err := p.NewNode(cluster.Linux)
	if err != nil {
		t.Fatal(err)
	}
	want := node.Host.AttributeProfile(dur, seed)
	var got []linux.Attribution
	if err := o.Payload(campaigns.AttributionKey("blkmq"), &got); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("campaign attribution %v, serial %v", got, want)
	}
}

// TestParseSpecRejectsBadSpecs: misspelled keys, at the top level or inside
// a section, must fail to parse rather than silently drop trials; unknown or
// repeated countermeasures must fail to enumerate.
func TestParseSpecRejectsBadSpecs(t *testing.T) {
	for _, tc := range []struct {
		name, spec string
		parseErr   bool
	}{
		{"unknown top-level key", `{"name":"x","figure4":{"ofp_nodes":2},"fualt":{"jobs":1}}`, true},
		{"unknown section field", `{"name":"x","fault":{"jobs":1,"node":4}}`, true},
		{"trailing data", `{"name":"x","fault":{}} {}`, true},
		{"unknown countermeasure", `{"name":"x","figure3":{"countermeasures":["none","ipi"]}}`, false},
		{"repeated countermeasure", `{"name":"x","figure3":{"countermeasures":["pmu","pmu"]}}`, false},
		{"unknown attribution countermeasure", `{"name":"x","attribution":{"countermeasure":"all"}}`, false},
		{"unknown machine_fwq field", `{"name":"x","machine_fwq":{"node":4}}`, true},
		{"negative machine nodes", `{"name":"x","machine_fwq":{"nodes":-1}}`, false},
		{"negative machine duration", `{"name":"x","machine_fwq":{"duration_seconds":-2}}`, false},
		{"negative machine worst nodes", `{"name":"x","machine_fwq":{"worst_nodes":-5}}`, false},
		{"negative operational jobs", `{"name":"x","operational":{"jobs":-1}}`, false},
		{"unknown figure label", `{"name":"x","seeds":[1],"apps":[{"figure":"8","platform":"ofp","app":"LQCD","nodes":[8]}]}`, false},
		{"explicit custom label", `{"name":"x","seeds":[1],"apps":[{"figure":"custom","platform":"ofp","app":"LQCD","nodes":[8]}]}`, false},
	} {
		spec, err := campaigns.ParseSpec([]byte(tc.spec))
		if tc.parseErr {
			if err == nil {
				t.Errorf("%s: ParseSpec accepted %s", tc.name, tc.spec)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := spec.Campaign(); err == nil {
			t.Errorf("%s: Campaign accepted %s", tc.name, tc.spec)
		}
	}
	if _, err := campaigns.ParseSpec([]byte(`{"name":"ok","figure3":{},"attribution":{}}`)); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// TestEngineTrialsHonorCancellation: the operational and machine_fwq trials,
// at their default sizes, stop when the orchestrator cancels them. A
// pre-canceled campaign is interrupted with no payload; a trial past its
// deadline fails as timed out after unwinding, leaking no goroutine.
func TestEngineTrialsHonorCancellation(t *testing.T) {
	for _, tc := range []struct{ spec, key string }{
		{`{"name":"operational","operational":{}}`, campaigns.OperationalKey},
		{`{"name":"machine-fwq","machine_fwq":{}}`, campaigns.MachineFWQKey},
	} {
		spec, err := campaigns.ParseSpec([]byte(tc.spec))
		if err != nil {
			t.Fatal(err)
		}
		c, err := spec.Campaign()
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		o, err := sweep.RunContext(ctx, c, sweep.Options{Workers: 1})
		if !errors.Is(err, sweep.ErrInterrupted) {
			t.Fatalf("%s: pre-canceled run returned %v, want ErrInterrupted", tc.key, err)
		}
		var payload json.RawMessage
		if err := o.Payload(tc.key, &payload); err == nil {
			t.Fatalf("%s: pre-canceled run has a payload", tc.key)
		}

		o, err = sweep.Run(c, sweep.Options{Workers: 1, TrialTimeout: time.Nanosecond})
		if err != nil {
			t.Fatal(err)
		}
		if o.Failed != 1 || o.TimedOut != 1 || o.Leaked != 0 {
			t.Fatalf("%s: 1 ns deadline gave failed=%d timed_out=%d leaked=%d, want 1/1/0 (%v)",
				tc.key, o.Failed, o.TimedOut, o.Leaked, o.FirstErr())
		}
	}
}

// TestMachineFWQReportMatchesDirectRun: the machine_fwq section's report is
// the indented JSON of a direct apps.FWQMachine run with the same
// parameters, at a different shard count than the trial uses.
func TestMachineFWQReportMatchesDirectRun(t *testing.T) {
	spec, err := campaigns.ParseSpec([]byte(`{"name":"m","machine_fwq":{"nodes":24,"duration_seconds":0.5,"worst_nodes":3}}`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.Campaign()
	if err != nil {
		t.Fatal(err)
	}
	_, o := runArtifacts(t, c, 1)
	got, err := spec.Report(o)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := cluster.Fugaku().MachineFWQ(cluster.Linux, 24, 6500*time.Microsecond, 500*time.Millisecond, 42, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := apps.FWQMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(want, '\n')) {
		t.Fatalf("report differs from the direct run:\n%s\nwant\n%s", got, want)
	}
}
