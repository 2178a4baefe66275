GO ?= go
J ?= 0
SWEEP_SPEC ?= specs/ci-sweep.json

.PHONY: all build fmt vet lint lint-fix lint-fix-clean test race check determinism results results-check repro-determinism sweep sweep-race sweep-determinism sweep-interrupt bench-sweep bench-node fuzz-smoke simd-race simd-chaos simd-supervise simd-load simd-obs shard-race shard-determinism bench-shard

all: check

build:
	$(GO) build ./...

# fmt fails when any file is not gofmt-clean (CI gate).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# lint runs simlint, the bespoke determinism-and-invariant multichecker
# (walltime, globalrand, maporder, sinkdiscipline, simtime, opsbound,
# lockguard, ctxflow, opstaint — see internal/lint/README.md). Exits 1 on
# any finding; suppress a justified one with
# //simlint:allow <check> — <reason>.
lint:
	$(GO) run ./cmd/simlint ./...

# lint-fix applies every suggested fix (stale Now() captures, minted
# Background contexts), rewrites the files in place, then re-lints.
# Findings without a fix still exit 1 — whether one wants a sorted-key
# fold, an engine-clock read or a reasoned suppression is a judgment call
# the diagnostics inform but don't make.
lint-fix:
	$(GO) run ./cmd/simlint -fix ./...

# lint-fix-clean is the CI fixed-point gate: the committed tree must be
# unchanged under simlint -fix, so no finding in history is one autofix
# away from different code.
lint-fix-clean:
	$(GO) run ./cmd/simlint -fix ./... || true
	git diff --exit-code

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# sweep runs the declarative campaign in SWEEP_SPEC over J workers (0 = all
# cores), caching trial results in .sweepcache so re-runs execute only
# changed trials. Artifacts land in sweep-out/.
sweep:
	$(GO) run ./cmd/sweep -spec $(SWEEP_SPEC) -j $(J) -cache-dir .sweepcache -outdir sweep-out

# sweep-race runs the orchestrator's own tests under the race detector.
sweep-race:
	$(GO) test -race ./internal/sweep/...

# sweep-determinism asserts the subsystem's contract end to end: a parallel
# cached run, a serial uncached run and a warm-cache re-run must produce
# byte-identical results.json, metrics.txt and report.txt, and the warm
# re-run must execute zero trials.
sweep-determinism:
	rm -rf /tmp/mkos-sweep-cache /tmp/mkos-sweep-j8 /tmp/mkos-sweep-j1 /tmp/mkos-sweep-warm
	$(GO) run ./cmd/sweep -spec $(SWEEP_SPEC) -j 8 -cache-dir /tmp/mkos-sweep-cache -outdir /tmp/mkos-sweep-j8
	$(GO) run ./cmd/sweep -spec $(SWEEP_SPEC) -j 1 -outdir /tmp/mkos-sweep-j1
	$(GO) run ./cmd/sweep -spec $(SWEEP_SPEC) -j 8 -cache-dir /tmp/mkos-sweep-cache -outdir /tmp/mkos-sweep-warm \
		| tee /tmp/mkos-sweep-warm-summary.txt
	grep -q ": 0 executed," /tmp/mkos-sweep-warm-summary.txt
	cmp /tmp/mkos-sweep-j8/results.json /tmp/mkos-sweep-j1/results.json
	cmp /tmp/mkos-sweep-j8/metrics.txt /tmp/mkos-sweep-j1/metrics.txt
	cmp /tmp/mkos-sweep-j8/report.txt /tmp/mkos-sweep-j1/report.txt
	cmp /tmp/mkos-sweep-j8/results.json /tmp/mkos-sweep-warm/results.json
	cmp /tmp/mkos-sweep-j8/metrics.txt /tmp/mkos-sweep-warm/metrics.txt
	cmp /tmp/mkos-sweep-j8/report.txt /tmp/mkos-sweep-warm/report.txt
	@echo "sweep artifacts byte-identical at -j 8, -j 1 and from warm cache (0 trials executed)"

# sweep-interrupt asserts the crash-safe resume contract end to end: SIGINT a
# running campaign, re-run it with the same cache dir, and require zero
# re-executed trials plus artifacts byte-identical to an uninterrupted run.
sweep-interrupt:
	sh scripts/interrupt-resume-check.sh $(SWEEP_SPEC) /tmp/mkos-interrupt-check

# bench-sweep records the orchestrator's scaling benchmarks (serial vs -j N).
bench-sweep:
	$(GO) test -run '^$$' -bench BenchmarkCampaign -benchtime 3x ./internal/sweep/

# bench-node records the node-build micro-benchmarks at the platform
# presets' shapes: IHK memory reservation on a fresh OFP and Fugaku Linux
# kernel (plus a reserve/release/reserve round trip) and Platform.NewNode
# for {OFP, Fugaku} x {Linux, McKernel}, with ns/op, B/op and allocs/op.
bench-node:
	$(GO) test -run '^$$' -bench 'BenchmarkReserveMemory|BenchmarkNewNode' ./internal/ihk/ ./internal/cluster/

# fuzz-smoke runs each native fuzz target briefly. FuzzBuddyDifferential
# checks the buddy allocator against its map-based predecessor on decoded
# operation sequences; FuzzSpecID checks the daemon's admission boundary
# (typed rejection, canonical-spec fixed point); FuzzLazySource checks
# sim.Rand's lazily seeded source against math/rand's rand.NewSource over
# seeds, draw counts and method mixes. Minimization is capped so
# the budget goes to new inputs rather than to shrinking the ones already
# found.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzBuddyDifferential -fuzztime 10s -fuzzminimizetime 200x ./internal/mem/
	$(GO) test -run '^$$' -fuzz FuzzSpecID -fuzztime 10s -fuzzminimizetime 200x ./internal/simd/
	$(GO) test -run '^$$' -fuzz FuzzLazySource -fuzztime 10s -fuzzminimizetime 200x ./internal/sim/

# simd-race runs the campaign daemon and chaos-injector tests under the race
# detector (also part of the full `race` target).
simd-race:
	$(GO) test -race ./internal/simd/... ./internal/fault/chaos/...

# simd-chaos is the daemon crash-tolerance gate: SIGKILL the daemon
# mid-campaign, restart it on the same store, and require a resume with zero
# re-executed trials, artifacts byte-identical to a never-crashed CLI run,
# and a clean SIGTERM drain afterwards.
simd-chaos:
	sh scripts/simd-chaos-check.sh $(SWEEP_SPEC) /tmp/mkos-simd-chaos

# simd-supervise is the worker-supervision gate: SIGKILL the supervised
# worker process twice mid-campaign (daemon stays up) and require
# completion with zero re-executed trials and byte-identical artifacts;
# then a poison campaign whose worker dies on every spawn must trip the
# crash-loop breaker while a concurrent healthy campaign completes.
simd-supervise:
	sh scripts/simd-supervise-check.sh specs/simd-supervise.json /tmp/mkos-simd-supervise

# simd-load floods the daemon — 200 clients submitting one identical tiny
# campaign (must collapse to one execution), then 60 distinct campaigns
# against a tiny queue (overflow must be refused and accounted) — and
# regenerates results/BENCH_simd.json.
simd-load:
	sh scripts/simd-load-smoke.sh specs/simd-smoke.json /tmp/mkos-simd-load

# simd-obs is the observability smoke: one campaign through simctl run must
# yield structured JSON logs with request/campaign ids, a valid Prometheus
# exposition whose counters match the campaign, a complete SSE replay via
# simctl tail, and a causally-parented ops trace at /v1/trace.
simd-obs:
	sh scripts/simd-obs-check.sh $(SWEEP_SPEC) /tmp/mkos-simd-obs

# shard-race runs the conservative-parallel runner and its clients under
# the race detector (also part of the full `race` target).
shard-race:
	$(GO) test -race ./internal/shard/... ./internal/apps/ ./internal/cluster/ ./internal/interconnect/

# shard-determinism is the sharded runner's end-to-end gate: a full-machine
# FWQ campaign at -shards 1, 2 and 8 must write byte-identical artifacts,
# and the 8-shard run must carry real cross-shard traffic.
shard-determinism:
	sh scripts/shard-determinism-check.sh /tmp/mkos-shard-det

# bench-shard records the 158,976-node full-machine sharded FWQ run
# (wall time at -shards 1 vs 8, window/barrier/cross-shard overhead) into
# results/BENCH_shard.json.
bench-shard:
	sh scripts/bench-shard.sh

# determinism runs the fault-injection smoke spec twice with the sim-time
# trace enabled and fails on any byte difference — the metrics dump and
# trace JSON must be identical for identical seeds.
determinism:
	rm -rf /tmp/mkos-det-1 /tmp/mkos-det-2
	$(GO) run ./cmd/sweep -spec specs/fault-smoke.json -j 1 -trace -outdir /tmp/mkos-det-1 > /dev/null
	$(GO) run ./cmd/sweep -spec specs/fault-smoke.json -j 1 -trace -outdir /tmp/mkos-det-2 > /dev/null
	cmp /tmp/mkos-det-1/trace.json /tmp/mkos-det-2/trace.json
	cmp /tmp/mkos-det-1/metrics.txt /tmp/mkos-det-2/metrics.txt
	@echo "telemetry artifacts byte-identical across runs"

# results regenerates the committed paper artifacts: each specs/<name>.json
# runs through cmd/sweep and its report.txt is copied to results/<name>.txt.
results:
	sh scripts/results.sh write /tmp/mkos-results

# results-check is the results gate: the same runs, compared byte for byte
# with the committed results/*.txt instead of copied over them.
results-check:
	sh scripts/results.sh check /tmp/mkos-results-check

# repro-determinism is repro's byte-identity gate: `repro -quick` cold at
# -j 1 (with -cpuprofile, -metrics and -trace), cold at -j 2 with a cache
# dir, and warm on that cache must write identical outdirs, metrics and
# cold-run traces, and the warm run must execute zero trials.
repro-determinism:
	sh scripts/repro-determinism-check.sh /tmp/mkos-repro-det

# check is what CI runs: formatting, vet, the simlint invariant gate,
# build, the full suite under the race detector, the determinism gates,
# and the daemon chaos/load gates.
check: fmt vet lint build race fuzz-smoke determinism results-check repro-determinism sweep-determinism sweep-interrupt simd-chaos simd-supervise simd-load simd-obs shard-determinism
