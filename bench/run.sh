#!/usr/bin/env bash
# Builds the spreadbench harness from this checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash bench/run.sh --workload sweep-dynamic --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays in .bench_build/ at the root
# of the checkout: the Go build cache and configuration, temporary files and
# span logs.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -o "$out/spreadbench" .)
cd "$root"
exec "$out/spreadbench" "$@"
