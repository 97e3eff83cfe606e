#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fineloops --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, the go command's temporary files and
# its user configuration stay under .bench_build/ in the checkout. No
# module is fetched: the only dependency is the checkout's own hybridloop
# module, through the replace directive in perfbench/go.mod.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off \
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
