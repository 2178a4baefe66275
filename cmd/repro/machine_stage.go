package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"time"

	"mkos/internal/apps"
	"mkos/internal/cluster"
	"mkos/internal/sim"
)

// runMachineStage is stage [6/6]: the full-machine sharded FWQ campaign with
// in-situ worst-node selection (Sec. 6.3). The fwq_machine.json artifact is
// deterministic and shard-count invariant; -shards only changes how the
// simulation is parallelized. Node count and duration are scaled well below
// the 158,976-node flagship run (cmd/fwq -shards covers that) so the stage
// stays a small slice of the repro's budget.
func runMachineStage(ctx context.Context, quick bool, shards int, outdir string, flushHost func()) {
	nodes, duration, worstK := 4096, 4*time.Second, 100
	if quick {
		nodes, duration, worstK = 256, 2*time.Second, 10
	}
	fmt.Printf("[6/6] full-machine sharded FWQ (%d nodes, %d shards)...\n", nodes, shards)
	p := cluster.Fugaku()
	cfg, err := p.MachineFWQ(cluster.Linux, nodes, 6500*time.Microsecond, duration, 42, shards, worstK)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Cancel = func() bool { return ctx.Err() != nil }
	res, sres, err := apps.FWQMachine(cfg)
	if errors.Is(err, sim.ErrCanceled) {
		log.Print("interrupted during the full-machine stage; no artifact written")
		flushHost()
		os.Exit(130)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d windows, %d digests (%d cross-shard), worst node %d (total noise %v)\n",
		res.Windows, sres.Stats.Messages, sres.Stats.CrossMessages,
		res.Worst[0].Node, time.Duration(res.Worst[0].Digest.TotalNoiseNS))
	writeFile(outdir, "fwq_machine.json", func(f *os.File) {
		blob, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			log.Fatal(err)
		}
		if _, err := f.Write(append(blob, '\n')); err != nil {
			log.Fatal(err)
		}
	})
}
