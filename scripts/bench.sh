#!/usr/bin/env sh
# Repo perf trajectory: run the kernel + end-to-end recovery benchmarks
# with fixed -benchtime/-count and record BENCH.json.
#
#   scripts/bench.sh                          # run, write BENCH.json
#   scripts/bench.sh -o out.json -label pr4   # custom output / label
#   scripts/bench.sh -base old.json           # embed old run as baseline,
#                                             # print deltas
#   scripts/bench.sh -compare old.json new.json
#
# BENCHTIME / COUNT env vars override the fixed defaults for soak runs.
# The committed BENCH.json holds {meta, baseline, benchmarks}: the
# numbers before and after the most recent perf PR on the recording box
# (meta notes its GOMAXPROCS — column-parallel speedups need >1 CPU).
#
# The recovery pass includes the Gram-form pair
# BenchmarkRecoveryBOMPGramHit / …GramMiss (every Gram column cached vs
# a throwaway workspace that computes each one: the engine's best case
# and its stated worst), on the query_cold shape and the Seeded scaling
# instance.
#
# The streaming pass records BOTH BenchmarkStreamFold (metrics layer on,
# the production configuration) and BenchmarkStreamFoldBare (metrics
# stripped): their ratio is the instrumentation overhead on the hot fold
# path, budgeted at ≤ 2%.
set -eu
cd "$(dirname "$0")/.."

BENCHTIME=${BENCHTIME:-300ms}
COUNT=${COUNT:-3}

if [ "${1:-}" = "-compare" ]; then
	[ $# -eq 3 ] || { echo "usage: bench.sh -compare old.json new.json" >&2; exit 2; }
	exec go run ./cmd/benchjson compare "$2" "$3"
fi

out=BENCH.json
label=""
base=""
while [ $# -gt 0 ]; do
	case "$1" in
	-o) out=$2; shift 2 ;;
	-label) label=$2; shift 2 ;;
	-base) base=$2; shift 2 ;;
	*) echo "bench.sh: unknown flag $1" >&2; exit 2 ;;
	esac
done

raw=$(mktemp)
cur=$(mktemp)
trap 'rm -f "$raw" "$cur"' EXIT

echo "== kernels: internal/sensing (benchtime=$BENCHTIME count=$COUNT) =="
go test -run - -bench 'BenchmarkKernel' -benchmem -benchtime "$BENCHTIME" -count "$COUNT" ./internal/sensing/ | tee -a "$raw"
echo "== end-to-end: internal/recovery =="
go test -run - -bench 'BenchmarkRecovery|BenchmarkBatchedRecovery|BenchmarkWarmStartBOMP' -benchmem -benchtime "$BENCHTIME" -count "$COUNT" ./internal/recovery/ | tee -a "$raw"
echo "== streaming ingest + durability + point queries: internal/stream =="
go test -run - -bench 'BenchmarkStream|BenchmarkSnapshotWrite|BenchmarkPointQuery|BenchmarkDetectQueryCold' -benchmem -benchtime "$BENCHTIME" -count "$COUNT" ./internal/stream/ | tee -a "$raw"
echo "== leaf ingest: one Observe, logged and measured =="
go test -run - -bench 'BenchmarkUpdaterObserve' -benchmem -benchtime "$BENCHTIME" -count "$COUNT" . | tee -a "$raw"
echo "== hierarchical fold: internal/tier (flat vs 2-tier fan-in) =="
go test -run - -bench 'BenchmarkTier' -benchmem -benchtime "$BENCHTIME" -count "$COUNT" ./internal/tier/ | tee -a "$raw"

if [ -n "$label" ]; then
	go run ./cmd/benchjson parse -label "$label" < "$raw" > "$cur"
else
	go run ./cmd/benchjson parse < "$raw" > "$cur"
fi

if [ -n "$base" ]; then
	# Merge through a temp file: with -base BENCH.json and the default
	# output, redirecting straight onto $out would truncate the baseline
	# before merge ever read it.
	merged=$(mktemp)
	go run ./cmd/benchjson merge "$base" "$cur" > "$merged"
	echo
	go run ./cmd/benchjson compare "$base" "$cur"
	mv "$merged" "$out"
else
	cp "$cur" "$out"
fi
echo "bench: wrote $out"
