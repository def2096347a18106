#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it,
# passing every argument through:
#
#   bash bench/run.sh --workload inproc-64 --seed 1 --seconds 18 --trace 0
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, Go's temp files, its module path and its config directory
# (where the toolchain keeps its telemetry counters), the binary and the
# journals all live under .bench_build/ (CARGO_TARGET_DIR if the caller
# set it).
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/service ] || [ ! -f bench/main.go ]; then
  echo "bench/run.sh: run from the root of a checkout of the repository (go.mod, internal/ and bench/ must be here)" >&2
  exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go build -o "$out/bench" ./bench
exec "$out/bench" -tmp "$out/tmp" "$@"
