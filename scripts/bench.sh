#!/usr/bin/env bash
# bench.sh — run the solver-critical benchmarks and write a JSON snapshot.
#
# Usage: scripts/bench.sh [output.json]
#   BENCHTIME=1x COUNT=1 scripts/bench.sh /tmp/smoke.json   # CI smoke
#   scripts/bench.sh BENCH_PR8.json                         # full snapshot
#   FIRMAMENT_BENCH_LARGE=1 scripts/bench.sh BENCH_PR8.json # + 1k/5k variants
#
# The snapshot records ns/op, B/op and allocs/op for the benchmarks that
# gate the MCMF hot path (Fig. 3, 7, 11, 14, the 1k-machine graph update and
# the pool's per-round clone)
# plus journal restore time and the template fast path (hit vs solver on a
# recurring job), so that later PRs have a perf trajectory to compare
# against. With FIRMAMENT_BENCH_LARGE set, the 1k/5k-machine Fig 7/11
# variants are appended (a single iteration each — warming a 5,000-machine
# cluster takes minutes, so they never run in CI smoke).
set -euo pipefail
cd "$(dirname "$0")/.."

# A BENCH_*.json snapshot asserts the hot-path contract (0 allocs/op in
# steady state); never take one from a tree that violates it. firmament-vet
# proves the contract statically before a single benchmark runs.
echo "firmament-vet ./... (hot-path/determinism invariants)"
go run ./cmd/firmament-vet ./...

out="${1:-BENCH_PR8.json}"
benchtime="${BENCHTIME:-1s}"
count="${COUNT:-3}"
pattern='^(BenchmarkFig3QuincyRuntime|BenchmarkFig7Algorithms|BenchmarkFig11Incremental|BenchmarkFig14PlacementLatency|BenchmarkUpdateRound1k|BenchmarkClone|BenchmarkRestore|BenchmarkTemplateHitPath)$'
large_pattern='^(BenchmarkFig7Large|BenchmarkFig11Large)$'

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" -count "$count" . | tee "$tmp"

if [[ -n "${FIRMAMENT_BENCH_LARGE:-}" ]]; then
    large_benchtime="${LARGE_BENCHTIME:-1x}"
    large_count="${LARGE_COUNT:-1}"
    go test -run '^$' -bench "$large_pattern" -benchmem \
        -benchtime "$large_benchtime" -count "$large_count" -timeout 60m . | tee -a "$tmp"
fi

awk -v benchtime="$benchtime" -v count="$count" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)  # strip GOMAXPROCS suffix
    iters = $2
    ns = ""; bytes = "null"; allocs = "null"
    for (i = 3; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i-1)
        if ($i == "B/op")      bytes = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
    }
    if (ns == "") next
    recs[n++] = sprintf("  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
        name, iters, ns, bytes, allocs)
}
END {
    printf "{\n  \"benchtime\": \"%s\",\n  \"count\": %s,\n  \"results\": [\n", benchtime, count
    for (i = 0; i < n; i++) printf "  %s%s\n", recs[i], (i < n-1 ? "," : "")
    print "  ]\n}"
}' "$tmp" > "$out"

echo "wrote $out"
