#!/bin/sh
# results.sh — regenerates the committed paper artifacts. Each
# specs/<name>.json runs through cmd/sweep, and its report.txt becomes
# results/<name>.txt (dashes in the spec name become underscores). With
# "check" as the first argument nothing is copied: every report is compared
# byte for byte with the committed file, and any difference fails.
#
# Usage: scripts/results.sh [write|check] [WORKDIR]
set -eu

MODE=${1:-write}
WORK=${2:-/tmp/mkos-results}
GO=${GO:-go}

rm -rf "$WORK"
mkdir -p "$WORK"
$GO build -o "$WORK/sweep" ./cmd/sweep

status=0
for name in table2 figure3-baseline figure3-daemons figure4 figure5 figure6 figure7; do
	committed="results/$(echo "$name" | tr - _).txt"
	# A paper-scale Table 2 trial holds ~2.5 GB while it runs, and its
	# results.json is ~2.8 GB: run its rows one at a time and drop the
	# results once the report is rendered.
	j=0
	[ "$name" = table2 ] && j=1
	"$WORK/sweep" -spec "specs/$name.json" -j "$j" -outdir "$WORK/$name" > /dev/null
	if [ "$MODE" = check ]; then
		cmp "$WORK/$name/report.txt" "$committed" || status=1
	else
		cp "$WORK/$name/report.txt" "$committed"
	fi
	rm -f "$WORK/$name/results.json"
done
if [ "$MODE" = check ] && [ "$status" -eq 0 ]; then
	echo "results/*.txt byte-identical to their specs' reports"
fi
exit $status
