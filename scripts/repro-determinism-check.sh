#!/bin/sh
# repro-determinism-check.sh — repro's byte-identity gate. Three
# `repro -quick` runs:
#
#   1. cold at -j 1, with -cpuprofile, -metrics and -trace;
#   2. cold at -j 2, with a -cache-dir (and -metrics and -trace);
#   3. warm at -j 2 on the same cache (and -metrics).
#
# The three outdirs must be identical, the cold runs' metrics and traces
# too, the warm run's metrics must equal the cold ones, and the warm run
# must execute zero trials. Run 1 profiles and run 2 does not, so the gate
# also shows that -cpuprofile leaves every artifact alone.
#
# Usage: scripts/repro-determinism-check.sh [WORKDIR]
set -eu

WORK=${1:-/tmp/mkos-repro-det}
GO=${GO:-go}

rm -rf "$WORK"
mkdir -p "$WORK"
$GO build -o "$WORK/repro" ./cmd/repro

"$WORK/repro" -quick -j 1 -outdir "$WORK/j1" -cpuprofile "$WORK/cpu.pprof" \
	-metrics "$WORK/j1-metrics.txt" -trace "$WORK/j1-trace.json" > "$WORK/j1-stdout.txt"
"$WORK/repro" -quick -j 2 -cache-dir "$WORK/cache" -outdir "$WORK/j2" \
	-metrics "$WORK/j2-metrics.txt" -trace "$WORK/j2-trace.json" > "$WORK/j2-stdout.txt"
"$WORK/repro" -quick -j 2 -cache-dir "$WORK/cache" -outdir "$WORK/warm" \
	-metrics "$WORK/warm-metrics.txt" > "$WORK/warm-stdout.txt"

test -s "$WORK/cpu.pprof"
grep -q ": 0 executed," "$WORK/warm-stdout.txt"
diff -r "$WORK/j1" "$WORK/j2"
diff -r "$WORK/j1" "$WORK/warm"
cmp "$WORK/j1-metrics.txt" "$WORK/j2-metrics.txt"
cmp "$WORK/j1-trace.json" "$WORK/j2-trace.json"
cmp "$WORK/j1-metrics.txt" "$WORK/warm-metrics.txt"
echo "repro artifacts byte-identical at -j 1, -j 2 and from a warm cache (0 trials executed), with and without -cpuprofile"
