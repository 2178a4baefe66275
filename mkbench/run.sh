#!/usr/bin/env bash
# Builds the mkbench benchmark from source and runs it with the arguments
# given, e.g. from the repository root:
#
#   bash mkbench/run.sh --workload app_points --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, temporary files,
# the binary, traces) stays under .bench_build in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
(cd "$here" && go build -o "$out/mkbench" .)
exec "$out/mkbench" "$@"
