// Command simd is the campaign daemon: simulation-as-a-service in front of
// the sweep orchestrator. It accepts the declarative campaign specs the
// CLIs consume (POST /v1/campaigns), executes them with bounded admission,
// per-client fairness and a shared content-addressed result store, and is
// built to survive its own death: every admitted campaign persists in the
// store, every finished trial lands in a crash-safe journal, and a
// SIGKILLed daemon restarted on the same -store resumes every unfinished
// campaign with zero re-executed trials and byte-identical artifacts.
//
// Each campaign executes in a supervised child process — a re-exec of this
// binary in a hidden worker mode — so a runaway trial's memory, a wedge or a
// crash kills one campaign's worker, never the daemon. The supervisor
// restarts dead workers under deterministic capped backoff (the journal
// makes every restart a resume), enforces an optional RSS ceiling
// (-rss-limit-mb), per-campaign wall deadline (-campaign-deadline) and
// heartbeat watchdog, and trips a per-campaign crash-loop circuit breaker
// after -crash-loop-k consecutive deaths with no progress (terminal state
// crash_loop; resubmitting re-arms it).
//
// Shutdown reuses the two-stage signal story of every CLI here: the first
// SIGINT/SIGTERM stops admission (typed 503), lets running campaigns finish
// for -drain-grace, then cancels them cooperatively and flushes their
// partial state; a second signal force-exits.
//
// Observability: the daemon logs structured JSON lines (level gated by
// -log-level), serves Prometheus text at /v1/metrics, a Chrome ops trace at
// /v1/trace and per-campaign SSE at /v1/campaigns/{id}/events; -debug-addr
// additionally exposes net/http/pprof on a separate listener so profiling
// never rides the campaign port.
//
// The -worker-chaos-* flags arm a seeded worker assassin (the chaos harness
// behind `make simd-supervise`): each spawned worker whose campaign name
// contains -worker-chaos-match is SIGKILLed after a deterministic delay,
// until the kill budget runs out.
//
// Usage:
//
//	simd -store /var/lib/simd [-addr :8080] [-j 4] [-concurrency 1]
//	     [-max-queue 64] [-max-per-client 8] [-trial-timeout 0]
//	     [-rss-limit-mb 0] [-campaign-deadline 0] [-crash-loop-k 3]
//	     [-log-level info] [-debug-addr 127.0.0.1:6060]
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"mkos/internal/fault/chaos"
	"mkos/internal/simd"
	"mkos/internal/simd/worker"
	"mkos/internal/sweep"
)

func main() {
	// The hidden worker mode must win before any flag parsing or -store
	// validation: the supervisor re-execs this binary as `simd -worker` with
	// everything else on stdin.
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		os.Exit(worker.Main(os.Stdin, os.Stdout, os.Stderr, nil))
	}

	log.SetFlags(0)
	log.SetPrefix("simd: ")
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	store := flag.String("store", "", "state directory: campaign specs, statuses, artifacts and the shared trial cache")
	workers := flag.Int("j", 0, "sweep workers per campaign (0 = all cores)")
	concurrency := flag.Int("concurrency", 1, "campaigns running at once")
	maxQueue := flag.Int("max-queue", 64, "queued-campaign bound across all clients")
	maxPerClient := flag.Int("max-per-client", 8, "queued-campaign bound per client")
	trialTimeout := flag.Duration("trial-timeout", 0, "fail any single trial exceeding this wall time (0 = no limit)")
	drainGrace := flag.Duration("drain-grace", 0, "how long running campaigns may finish naturally on drain (0 = default 2s)")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this extra address (off when empty)")
	rssLimitMB := flag.Int64("rss-limit-mb", 0, "kill a worker whose resident set exceeds this many MiB (0 = no limit)")
	campaignDeadline := flag.Duration("campaign-deadline", 0, "fail a campaign exceeding this wall time across worker restarts (0 = no limit)")
	crashLoopK := flag.Int("crash-loop-k", 3, "open the crash-loop breaker after this many consecutive worker deaths with no progress")
	chaosKills := flag.Int("worker-chaos-kills", 0, "chaos: SIGKILL this many spawned workers (-1 = every one); 0 disarms")
	chaosSeed := flag.Int64("worker-chaos-seed", 1, "chaos: seed for the kill-delay schedule")
	chaosMatch := flag.String("worker-chaos-match", "", "chaos: only kill workers of campaigns whose name contains this substring (empty = all)")
	chaosMin := flag.Duration("worker-chaos-min", 500*time.Millisecond, "chaos: minimum kill delay after worker spawn")
	chaosMax := flag.Duration("worker-chaos-max", 3*time.Second, "chaos: maximum kill delay after worker spawn")
	flag.Parse()
	if *store == "" {
		log.Fatal("provide -store DIR (the daemon's durable state)")
	}

	exe, err := os.Executable()
	if err != nil {
		log.Fatalf("resolving own executable for worker re-exec: %v", err)
	}
	opts := simd.Options{
		Store:        *store,
		Workers:      *workers,
		Concurrency:  *concurrency,
		MaxQueue:     *maxQueue,
		MaxPerClient: *maxPerClient,
		TrialTimeout: *trialTimeout,
		DrainGrace:   *drainGrace,
		Log:          os.Stderr,
		LogLevel:     *logLevel,
		Worker: simd.WorkerOptions{
			Cmd:        []string{exe, "-worker"},
			RSSLimit:   *rssLimitMB << 20,
			Deadline:   *campaignDeadline,
			CrashLoopK: *crashLoopK,
		},
	}
	if *chaosKills != 0 {
		killer := &chaos.WorkerKiller{
			Plan:  chaos.NewPlan(*chaosSeed),
			Kills: *chaosKills,
			Min:   *chaosMin,
			Max:   *chaosMax,
		}
		match := *chaosMatch
		opts.Worker.SpawnHook = func(campaign string, attempt, pid int) {
			if match == "" || strings.Contains(campaign, match) {
				killer.Arm(pid)
			}
		}
	}
	srv, err := simd.NewServer(opts)
	if err != nil {
		log.Fatal(err)
	}

	if *debugAddr != "" {
		// pprof gets its own mux on its own listener: the campaign port
		// never exposes profiling, and a wedged profile dump cannot tie up
		// campaign connections.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*debugAddr, dmux); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	// First SIGINT/SIGTERM cancels the context → ListenAndServe drains;
	// a second force-exits (sweep.SignalContext stage two).
	ctx, stop := sweep.SignalContext(context.Background(), os.Stderr)
	defer stop()
	if err := srv.ListenAndServe(ctx, *addr); err != nil {
		log.Fatal(err)
	}
}
