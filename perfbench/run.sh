#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload partition --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary, span files and run records all stay under
# .bench_build/ in the checkout. Outside a full checkout (no root go.mod) the
# build fails and the script exits non-zero without running anything.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-buildvcs=false

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
