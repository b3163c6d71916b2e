#!/usr/bin/env sh
# Repo verification: everything CI runs, in one command.
#
#   scripts/verify.sh          # tier-1 + race + simulation smoke
#   scripts/verify.sh -quick   # tier-1 (and the benchmark module) only
#   scripts/verify.sh -bench   # tier-1 + 1-iteration benchmark smoke
#                              # + 3-round oneshot_pull benchmark runs
#                              #   (no failed operation; large-k recall)
#                              # + 8-cycle ingest_flat run (no failed
#                              #   operation; wire bytes per observation)
#
# Tier-1 (build, vet, full test suite) is the floor every change must
# clear. benchmark/ is a module of its own, so tier-1's ./... never
# compiles it: its vet + test stage runs in every mode, or drift in the
# stream/tier API it drives is found only by the next benchmark run.
# The race pass covers the concurrency-heavy transport/collector,
# the streaming push service (internal/stream), AND the column-parallel
# sensing kernels (and internal/linalg's reference kernels), and batched recovery
# engine (internal/recovery); the simulation smoke runs randomized
# end-to-end scenarios against the exact oracle (see internal/simtest),
# then the streaming soaks drive the push pipeline through one scenario
# harness (one scenario type carrying a schedule of fault marks, one rig,
# one checker: internal/simtest/stream*.go) with five seeded generators:
# chaos-TCP connection kills with a node crash/restart and duplicate
# deltas; an aggregator snapshot, kill, restore and node replay; a
# mid-run join, graceful leave and eviction + resurrection; count-sketch
# point answers mid-run and over every window span; and the 2-tier ×
# 2-shard tree with a relay kill/restore. Every run is held to the same
# oracle: each root window bit-identical to a shadow fold, every span's
# answers equal to the centralized ones, every book balanced. Raise
# -sim.count / -sim.streamcount and friends for soak runs. The -bench mode
# compiles and runs every benchmark exactly once — it catches bit-rotted
# benchmark code without paying for a real measurement (use
# scripts/bench.sh for that) — and then drives three checked rounds of
# the end-to-end benchmark's oneshot_pull workload (8 pull nodes over
# loopback TCP, one DetectCluster per round, every answer against the
# exact oracle), which must report no failed operation, and once more
# with --trace 1, where the traced recovery.large_k_recall probe (k=16
# at M=320: every key of the exact top-16, on every seeded vector) must
# read at least 0.99. Last, eight fixed cycles of ingest_flat (2 leaves
# flushing 16-observation frames at one root): no failed operation — the
# workload checks every root window against the exact sketch — and at
# most 20 wire bytes per observation, which holds only while a small
# flush travels as its observations and not as the M-float sketch.
#
# Every mode first refuses encoding/gob in non-test code: both wire
# protocols are internal/frame's binary frames, and a gob import is a
# second codec on its way back in. Next to it, every mode refuses a
# PushDelta/Hello/DialClient call in internal/tier and a second
# definition of the ctx-sleep / backoff-delay helpers, and in
# internal/stream a queue between a connection's handler and the fold or
# a nil-check of the aggregator's metrics, and anywhere a fold from
# encoded bytes under a lock, a chunked multi-column add with its shared
# buffer, or the row-major GEMM Dense no longer needs. Then the two-ensemble
# guards: no concrete *sensing matrix type in non-test code outside
# internal/sensing (pointquery.go's *sensing.CountSketch is the one
# exception — the point estimators are not Matrix methods), no name of a
# retired ensemble, the column cache or the optional batch interface
# anywhere, and a gofmt-clean tree. Then the one-harness guards: a second
# replay-line field loop or a third chaos-proxy call site in
# internal/simtest is a copy of the streaming harness growing back. Last,
# the one-engine guard: internal/recovery calls the matrix's correlate
# kernels in two places, so a loop that correlates a residual again is the
# engine the Gram form replaced growing back as a fork.
set -eu
cd "$(dirname "$0")/.."

echo "== no encoding/gob outside tests =="
if grep -rl --include='*.go' --exclude='*_test.go' --exclude-dir=.git --exclude-dir=.bench_build '"encoding/gob"' .; then
	echo "verify: the files above import encoding/gob; the wire codec is internal/frame" >&2
	exit 1
fi

echo "== one push sender, one backoff =="
# The stop-and-wait sender (stream.Sender) is the only data-path caller
# of Client.Hello/PushDelta, and the ctx-sleep / backoff-delay pair is
# defined once (internal/xrand): a relay that dials its parent itself,
# or a second copy of the helpers, is a mirror growing back.
if grep -rnE --include='*.go' --exclude='*_test.go' '\.(PushDelta|Hello|DialClient)\(' internal/tier; then
	echo "verify: internal/tier talks to its parent directly; upward frames go through stream.Sender" >&2
	exit 1
fi
defs=$(grep -rniE --include='*.go' --exclude='*_test.go' --exclude-dir=.git --exclude-dir=.bench_build --exclude-dir=benchmark \
	'^func (\([^)]*\) )?(sleepCtx|sleepUp|backoffDelay|backoffUp)\(' . || true)
if [ "$(printf '%s\n' "$defs" | grep -c .)" -ne 2 ]; then
	echo "verify: want exactly one ctx-sleep and one backoff-delay definition (internal/xrand/backoff.go), found:" >&2
	printf '%s\n' "$defs" >&2
	exit 1
fi

echo "== one serialisation point: the handler folds =="
# A delta is folded by the goroutine that read it, under ingest.mu, and
# Aggregator.metrics is always set (BenchmarkStreamFoldBare calls
# applyFrame): a queue between handler and fold, or a nil-check that
# forks the product code into instrumented and bare, is the second
# mechanism growing back.
if grep -nE 'QueueDepth|chan ingestItem|:= a\.metrics; m != nil|\.metrics [!=]= nil' $(ls internal/stream/*.go | grep -v _test.go); then
	echo "verify: the lines above queue frames ahead of the fold or fork on a nil metrics pointer (EXPERIMENTS.md pr24)" >&2
	exit 1
fi

echo "== measure before the lock, one column at a time =="
# A handler decodes a delta — measuring a pairs payload — into its own
# scratch before it takes ingest.mu, and a column of the column-major
# Dense is one contiguous AddCol. WindowStore.AddEncoded (measure under
# the store's lock), Matrix.AddCols and its shared pairChunk buffer, and
# linalg's ParallelMulMatT are what that replaced.
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=.git --exclude-dir=.bench_build \
	'AddEncoded\(|AddCols\(|pairChunk|ParallelMulMatT' .; then
	echo "verify: the lines above bring back a fold under a lock, a chunked column add or the row-major GEMM (EXPERIMENTS.md pr25)" >&2
	exit 1
fi

echo "== two ensembles, one Matrix interface =="
# Callers hold a sensing.Matrix: a type switch on the concrete matrix
# outside internal/sensing is the per-ensemble fork growing back.
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=.git --exclude-dir=.bench_build \
	'\*sensing\.(Dense|Seeded|CountSketch)\b' . | grep -v '^\./internal/sensing/' | grep -v '^\./pointquery\.go:.*\*sensing\.CountSketch'; then
	echo "verify: the lines above name a concrete sensing matrix type; hold a sensing.Matrix" >&2
	exit 1
fi
if grep -rnE --include='*.go' --exclude-dir=.git --exclude-dir=.bench_build \
	'NewSRHT|NewSparseRademacher|NewColumnCache|BatchCorrelator' .; then
	echo "verify: the lines above name a retired ensemble, the column cache or the optional batch interface (EXPERIMENTS.md pr21)" >&2
	exit 1
fi
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "verify: gofmt -l names:" >&2
	printf '%s\n' "$unformatted" >&2
	exit 1
fi

echo "== one streaming scenario harness =="
# Every replay grammar (v1, stream2 and the five legacy prefixes) is a
# field table read by parseReplayLine, and the rig starts its proxies in
# one place (two are allowed: one per topology constructor).
loops=$(grep -c 'strings.Fields(strings.TrimSpace(line))' $(ls internal/simtest/*.go | grep -v _test.go) | awk -F: '{n += $2} END {print n}')
if [ "$loops" -gt 1 ]; then
	echo "verify: $loops replay-line field loops in internal/simtest; add a field table to parseReplayLine instead" >&2
	exit 1
fi
sites=$(grep -h 'startChaosProxy(' $(ls internal/simtest/*.go | grep -v _test.go) | grep -vc '^func ')
if [ "$sites" -gt 2 ]; then
	echo "verify: $sites startChaosProxy call sites in internal/simtest; the flat and the tier rig are the only two" >&2
	exit 1
fi

echo "== one recovery engine: the Gram form =="
# The greedy loop reads its correlations off c₀ − Σ z·g (Workspace): the
# matrix is correlated once per solve for the c₀s and the Gram columns a
# hint names (solve's block) and once per missed column (GramCache.fill).
# naive.go is the normal-equations ablation the root benchmarks import.
sites=$(grep -nE '\.[cC]orrelate[A-Za-z]*\(' $(ls internal/recovery/*.go | grep -v -e '_test\.go$' -e '/naive\.go$') |
	grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
extra=$(printf '%s\n' "$sites" | grep -v \
	-e 'workspace\.go:.*sensing\.CorrelateBlock(' \
	-e 'gram\.go:.*\.m\.Correlate(' || true)
if [ -n "$extra" ] || [ "$(printf '%s\n' "$sites" | grep -c .)" -ne 2 ]; then
	echo "verify: internal/recovery correlates outside its two sanctioned sites (solve's c₀/prefetch block, GramCache.fill):" >&2
	printf '%s\n' "$sites" >&2
	exit 1
fi

echo "== tier-1: build + vet + test =="
go build ./...
go vet ./...
go test ./...

echo "== benchmark module: vet + test (not part of ./...) =="
(cd benchmark && go vet . && go test .)

case "${1:-}" in
-quick)
	exit 0
	;;
-bench)
	echo "== bench smoke: every benchmark, one iteration =="
	go test -run - -bench . -benchtime 1x ./...
	echo "== benchmark smoke: three checked oneshot_pull rounds =="
	line=$(bash benchmark/run.sh --workload oneshot_pull --cycles 3 --trace 0 | tail -n 1)
	echo "$line"
	case "$line" in
	*'"failed":0'*) ;;
	*)
		echo "verify: oneshot_pull reported failed operations" >&2
		exit 1
		;;
	esac
	echo "== benchmark gate: oneshot_pull large-k recall (traced round) =="
	line=$(bash benchmark/run.sh --workload oneshot_pull --cycles 3 --trace 1 | tail -n 1)
	recall=$(printf '%s\n' "$line" | sed -n 's/.*"recovery\.large_k_recall":{"value":\([0-9.eE+-]*\).*/\1/p')
	echo "recovery.large_k_recall = ${recall:-missing}"
	if ! awk -v r="${recall:-0}" 'BEGIN { exit !(r >= 0.99) }'; then
		echo "verify: oneshot_pull recovery.large_k_recall below 0.99" >&2
		echo "$line" >&2
		exit 1
	fi
	echo "== benchmark gate: ingest_flat wire bytes per observation =="
	line=$(bash benchmark/run.sh --workload ingest_flat --seed 1 --cycles 8 --trace 0 | tail -n 1)
	echo "$line"
	case "$line" in
	*'"failed":0'*) ;;
	*)
		echo "verify: ingest_flat reported failed operations" >&2
		exit 1
		;;
	esac
	wire=$(printf '%s\n' "$line" | sed -n 's/.*"wire_bytes_per_obs":{"value":\([0-9.eE+-]*\).*/\1/p')
	echo "wire_bytes_per_obs = ${wire:-missing}"
	if ! awk -v w="${wire:-1e9}" 'BEGIN { exit !(w <= 20) }'; then
		echo "verify: ingest_flat wire_bytes_per_obs above 20" >&2
		exit 1
	fi
	echo "verify: OK (bench smoke)"
	exit 0
	;;
esac

echo "== race: full suite (includes parallel kernel + batched recovery equivalence tests) =="
go test -race ./...

echo "== simulation smoke: randomized end-to-end scenarios =="
go test ./internal/simtest -run 'TestSim$' -sim.count=50

echo "== streaming soak: chaos-TCP push pipeline vs per-window oracle =="
go test ./internal/simtest -run 'TestStreamSoak$' -sim.streamcount=25

echo "== durability soak: snapshot/crash/restore + membership churn =="
go test ./internal/simtest -run 'TestStreamCrashSoak$' -sim.streamcrashcount=10
go test ./internal/simtest -run 'TestStreamChurnSoak$' -sim.streamchurncount=10

echo "== point-query soak: recovery-free count-sketch answers vs exact oracle =="
go test ./internal/simtest -run 'TestStreamPointQSoak$' -sim.streampointqcount=10

echo "== hierarchical-tier soak: 2-tier × 2-shard tree with relay kill/restore =="
go test ./internal/simtest -run 'TestStreamTierSoak$' -sim.streamtiercount=10

echo "== metrics smoke: /metrics + /healthz on a live csstreamd =="
tmp=$(mktemp -d)
daemon=""
root=""
relay=""
cleanup() {
	[ -n "$daemon" ] && kill "$daemon" 2>/dev/null || true
	[ -n "$relay" ] && kill "$relay" 2>/dev/null || true
	[ -n "$root" ] && kill "$root" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM
printf 'key000\nkey001\nkey002\nkey003\nkey004\nkey005\nkey006\nkey007\n' >"$tmp/keys.txt"
go build -o "$tmp/csstreamd" ./cmd/csstreamd
go build -o "$tmp/obscheck" ./cmd/obscheck
"$tmp/csstreamd" -dict "$tmp/keys.txt" -m 4 -listen 127.0.0.1:0 \
	-metrics-addr 127.0.0.1:0 -report-every 0 >"$tmp/log" 2>&1 &
daemon=$!
url=""
for _ in $(seq 1 50); do
	url=$(sed -n 's/.*csstreamd metrics on \(http:[^ ]*\)$/\1/p' "$tmp/log" | head -1)
	[ -n "$url" ] && break
	sleep 0.1
done
if [ -z "$url" ]; then
	echo "verify: csstreamd never logged its metrics address" >&2
	cat "$tmp/log" >&2
	exit 1
fi
"$tmp/obscheck" -url "$url" -require \
	stream_frames_total,stream_malformed_frames_total,stream_frame_outcomes_total,stream_fold_seconds,stream_window,stream_recovery_cache_total,stream_warm_starts_total,stream_batch_refreshes_total,recovery_detect_seconds,recovery_batch_queries_total,recovery_gram_hits_total,recovery_gram_misses_total,recovery_correlate_columns_total,stream_snapshot_commits_total,stream_snapshot_errors_total,stream_snapshot_bytes,stream_snapshot_seconds,stream_membership_events_total,stream_membership_version,stream_membership_tombstones,stream_agg_epoch,stream_shed_frames_total,stream_shed_folds_total,stream_delta_frames_total,pointq_queries_total,pointq_refreshes_total,pointq_outliers_total,pointq_seconds,pointq_remote_queries_total,pointq_remote_keys_total,pointq_remote_errors_total,pointq_remote_seconds,recovery_solver_picks_total
"$tmp/obscheck" -url "${url%/metrics}/healthz" -health

echo "== hierarchical metrics smoke: tier_*/shard_* on a live relay =="
# Shard 0 of a 2-shard partition (4 of 8 keys, so -m 2 keeps
# compression), served by a root with a relay forwarding into it.
"$tmp/csstreamd" -dict "$tmp/keys.txt" -m 2 -shards 2 -shard-index 0 \
	-listen 127.0.0.1:0 -report-every 0 >"$tmp/rootlog" 2>&1 &
root=$!
rootaddr=""
for _ in $(seq 1 50); do
	rootaddr=$(sed -n 's/.*csstreamd serving .* on \([0-9.:]*\);.*/\1/p' "$tmp/rootlog" | head -1)
	[ -n "$rootaddr" ] && break
	sleep 0.1
done
if [ -z "$rootaddr" ]; then
	echo "verify: shard root never logged its push address" >&2
	cat "$tmp/rootlog" >&2
	exit 1
fi
"$tmp/csstreamd" -dict "$tmp/keys.txt" -m 2 -shards 2 -shard-index 0 \
	-relay-upstream "$rootaddr" -relay-id r0 -forward-every 1s \
	-listen 127.0.0.1:0 -metrics-addr 127.0.0.1:0 -report-every 0 >"$tmp/relaylog" 2>&1 &
relay=$!
relayurl=""
for _ in $(seq 1 50); do
	relayurl=$(sed -n 's/.*csstreamd metrics on \(http:[^ ]*\)$/\1/p' "$tmp/relaylog" | head -1)
	[ -n "$relayurl" ] && break
	sleep 0.1
done
if [ -z "$relayurl" ]; then
	echo "verify: relay csstreamd never logged its metrics address" >&2
	cat "$tmp/relaylog" >&2
	exit 1
fi
"$tmp/obscheck" -url "$relayurl" -require \
	tier_forwards_total,tier_forward_errors_total,tier_frames_staged_total,tier_folds_staged_total,tier_frames_committed_total,tier_up_frames_total,tier_replayed_frames_total,tier_retain_dropped_frames_total,tier_redials_total,tier_unstable_windows,tier_staged_frames,tier_queue_frames,tier_retained_frames,tier_up_seq,tier_up_epoch,tier_root_epoch,tier_root_stable,tier_forward_seconds,shard_index,shard_count,shard_keys,shard_map_version
"$tmp/obscheck" -url "${relayurl%/metrics}/healthz" -health

echo "verify: OK"
