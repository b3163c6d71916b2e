#!/usr/bin/env sh
# Repo verification: everything CI runs, in one command.
#
#   scripts/verify.sh          # tier-1, then doc-lint, the CLI deployment,
#                              # the examples, race, simulation smoke, soaks,
#                              # fuzzing, /metrics smokes
#   scripts/verify.sh -quick   # gofmt + tier-1 + the benchmark module
#   scripts/verify.sh -bench   # tier-1, doc-lint, the CLI deployment, the
#                              # examples, then the benchmark smokes and gates
#
# Tier-1 (build, vet, the full suite) is the floor every change clears.
# The architecture rules are part of it: the test internal/archtest, whose
# rule table is the list (EXPERIMENTS.md pr31 maps the old shell guards to
# its rows). benchmark/ is a module of its own, so ./... never compiles it:
# every mode vets and tests it too. Everything else here is what only a
# shell can do: gofmt, the Φ goldens under GOARCH=386, the flag doc-lint
# (every -flag a documented command line passes is in that command's -h),
# the networked deployment, the examples, the race pass, the soaks and the
# smokes.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "verify: gofmt -l names:" >&2
	printf '%s\n' "$unformatted" >&2
	exit 1
fi

echo "== tier-1: build + vet + test (includes internal/archtest) =="
go build ./...
go vet ./...
go test ./...

echo "== benchmark module: vet + test (not part of ./...) =="
(cd benchmark && go vet . && go test .)

if [ "${1:-}" = -quick ]; then
	exit 0
fi

echo "== second architecture: the Φ golden pins and recovery under GOARCH=386 =="
# The golden constants in internal/xrand and internal/sensing (Gaussian Φ
# and every count-sketch (cell, sign)) were recorded on amd64; on 386
# math.Log is pure Go and bits.Mul64 no intrinsic, and the bits must still
# agree. The recovery engine's equivalence tests (Cholesky
# loop against the MGS reference, every cache state bit-identical) run on
# the same second architecture. 386 test binaries run natively on amd64
# Linux.
GOARCH=386 go test -count=1 ./internal/xrand/ ./internal/sensing/ ./internal/recovery/ ./internal/linalg/

tmp=$(mktemp -d)
pids=""
cleanup() {
	[ -n "$pids" ] && kill $pids 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM
go build -o "$tmp/bin/" ./cmd/csagg ./cmd/csnode ./cmd/csstreamd ./cmd/csgen ./cmd/csbench ./cmd/obscheck

echo "== doc-lint: every -flag a documented command line passes exists =="
# Command lines are the fenced code lines of README, DESIGN and the verify
# skill, and the tab-indented lines of every command's package doc
# (continuation lines joined). One that runs csagg, csnode, csstreamd, csgen
# or csbench may pass only flags that command's -h lists: a flag deleted
# from the code is deleted from the docs.
for c in csagg csnode csstreamd csgen csbench; do
	"$tmp/bin/$c" -h >"$tmp/$c.help" 2>&1 || true
done
stale=$(awk '
FNR == 1 { fence = 0; acc = ""; godoc = FILENAME ~ /\.go$/; body = 0 }
godoc && /^package / { body = 1 }
godoc && body { next }
godoc && !sub(/^\/\/\t/, "") { acc = ""; next }
!godoc && /^[[:space:]]*```/ { fence = !fence; acc = ""; next }
!godoc && !fence { next }
sub(/\\[[:space:]]*$/, " ") { acc = acc $0; next }
{
	line = acc $0; acc = ""
	n = split(line, segs, /[;&|]/)
	for (i = 1; i <= n; i++) {
		m = split(segs[i], w, /[[:space:]]+/)
		cmd = ""
		for (j = 1; j <= m; j++) {
			tok = w[j]
			gsub(/"/, "", tok)
			if (tok ~ /^#/) break
			if (cmd == "") {
				sub(/.*\//, "", tok)
				if (tok ~ /^(csagg|csnode|csstreamd|csgen|csbench)$/) cmd = tok
			} else if (tok ~ /^--?[A-Za-z][A-Za-z0-9.-]*(=.*)?$/) {
				sub(/^--?/, "", tok)
				sub(/=.*/, "", tok)
				print FILENAME ": " cmd " -" tok
			}
		}
	}
}' README.md DESIGN.md .claude/skills/verify/SKILL.md cmd/*/main.go | sort -u | while read -r file cmd flag; do
	grep -qE -- "^  $flag( |\$)" "$tmp/$cmd.help" || echo "$file $cmd $flag"
done)
if [ -n "$stale" ]; then
	echo "verify: documented flags the commands do not have:" >&2
	printf '%s\n' "$stale" >&2
	exit 1
fi

echo "== CLI deployment: csgen, three csnodes, csagg =="
# The networked deployment end to end: csagg's top-1 key is the planted
# one, and with one address dead below -min-nodes it prints a health row
# per node and exits 1.
"$tmp/bin/csgen" -out "$tmp/demo" -nodes 3 -n 2000 -s 20 >"$tmp/csgen.log" 2>&1
for i in 0 1 2; do
	"$tmp/bin/csnode" -listen 127.0.0.1:0 -name "dc$i" -dict "$tmp/demo/keys.txt" -data "$tmp/demo/node$i.csv" >"$tmp/node$i.log" 2>&1 &
	pids="$pids $!"
done
addrs=""
for i in 0 1 2; do
	a=""
	for _ in $(seq 1 50); do
		a=$(sed -n 's/.*serving [0-9]* keys on \([0-9.:]*\)$/\1/p' "$tmp/node$i.log" | head -1)
		[ -n "$a" ] && break
		sleep 0.1
	done
	if [ -z "$a" ]; then
		echo "verify: csnode $i never logged its address" >&2
		cat "$tmp/node$i.log" >&2
		exit 1
	fi
	addrs="$addrs${addrs:+,}$a"
done
if ! "$tmp/bin/csagg" -nodes "$addrs" -dict "$tmp/demo/keys.txt" -m 400 -k 5 -iters 40 >"$tmp/agg.out" 2>"$tmp/agg.err"; then
	cat "$tmp/agg.err" >&2
	echo "verify: csagg failed against three live csnodes" >&2
	exit 1
fi
got=$(sed -n 's/^ *1\. \([^ ]*\) .*/\1/p' "$tmp/agg.out")
want=$(sed -n '2s/,.*//p' "$tmp/demo/truth.csv")
if [ -z "$got" ] || [ "$got" != "$want" ]; then
	cat "$tmp/agg.out" >&2
	echo "verify: csagg top-1 key '$got', truth.csv says '$want'" >&2
	exit 1
fi
echo "csagg top-1 $got = truth.csv top-1"
dead="${addrs%,*},127.0.0.1:1"
if "$tmp/bin/csagg" -nodes "$dead" -dict "$tmp/demo/keys.txt" -m 400 -k 5 -min-nodes 3 -health >"$tmp/agg.out" 2>"$tmp/agg.err"; then
	echo "verify: csagg met a quorum of 3 with one of three addresses dead" >&2
	exit 1
fi
rows=$(grep -c 'csagg: node .* id=' "$tmp/agg.err" || true)
if [ "$rows" -ne 3 ]; then
	cat "$tmp/agg.err" >&2
	echo "verify: csagg -health printed $rows node rows below quorum, want 3" >&2
	exit 1
fi
tail -n 1 "$tmp/agg.err"
kill $pids 2>/dev/null || true
pids=""
# csstreamd refuses a flag it would ignore, with status 2, before it
# listens: -snapshot on a relay (which keeps no file); -window-every on
# a relay (which rotates when its upstream does); -forward-every or
# -relay-id without -relay-upstream; -shards below 1, and a -shard-index
# outside [0, -shards), with one shard too; and a value that would
# silently mean another: -windows below 1 (which meant 8), -k 0 (which
# failed every report), a negative -span (which meant every window),
# -forward-every 0 on a relay (which never forwarded or synced) and a
# negative -window-every, -report-every, -idle-timeout or -evict-after
# (each meant 0).
for args in "-snapshot $tmp/relay.snap -relay-upstream 127.0.0.1:1 -relay-id r0" \
	"-window-every 1m -relay-upstream 127.0.0.1:1 -relay-id r0" \
	"-forward-every 0 -relay-upstream 127.0.0.1:1 -relay-id r0" \
	"-forward-every 30s" "-relay-id r0" \
	"-shards 0" "-shards -1" "-shard-index 5" "-shard-index -1" "-shards 2 -shard-index 2" \
	"-windows 0" "-windows -1" "-k 0" "-span -1" \
	"-window-every -1s" "-report-every -1s" "-idle-timeout -1s" "-evict-after -1s"; do
	status=0
	"$tmp/bin/csstreamd" -dict "$tmp/demo/keys.txt" -m 400 -listen 127.0.0.1:0 $args >"$tmp/refuse.log" 2>&1 || status=$?
	if [ "$status" -ne 2 ]; then
		cat "$tmp/refuse.log" >&2
		echo "verify: csstreamd $args exited $status, want 2" >&2
		exit 1
	fi
	tail -n 1 "$tmp/refuse.log"
done
# csnode and csagg refuse a flag value that would silently mean another,
# with status 2, before they listen or dial: csnode -push-chunk 0 (which
# meant 256), -push-every 0 (a busy loop of hellos once the slice is
# sent) and a -push list naming an empty address (one shard per
# address: a trailing comma would be a shard no daemon serves), csagg
# -attempts 0 or -1 (which meant 2) and -min-nodes -1 (which meant every
# node).
for args in "-push-chunk 0" "-push-every 0" "-push 127.0.0.1:1, -m 400"; do
	status=0
	"$tmp/bin/csnode" -dict "$tmp/demo/keys.txt" -data "$tmp/demo/node0.csv" -listen 127.0.0.1:0 $args >"$tmp/refuse.log" 2>&1 || status=$?
	if [ "$status" -ne 2 ]; then
		cat "$tmp/refuse.log" >&2
		echo "verify: csnode $args exited $status, want 2" >&2
		exit 1
	fi
	tail -n 1 "$tmp/refuse.log"
done
for args in "-attempts 0" "-attempts -1" "-min-nodes -1"; do
	status=0
	"$tmp/bin/csagg" -nodes "$addrs" -dict "$tmp/demo/keys.txt" -m 400 $args >"$tmp/refuse.log" 2>&1 || status=$?
	if [ "$status" -ne 2 ]; then
		cat "$tmp/refuse.log" >&2
		echo "verify: csagg $args exited $status, want 2" >&2
		exit 1
	fi
	tail -n 1 "$tmp/refuse.log"
done

echo "== examples: every main under examples/ runs to a zero exit =="
go build -o "$tmp/examples/" ./examples/...
for ex in "$tmp"/examples/*; do
	if ! "$ex" >"$tmp/example.out" 2>&1; then
		cat "$tmp/example.out" >&2
		echo "verify: example $(basename "$ex") failed" >&2
		exit 1
	fi
	echo "examples/$(basename "$ex") ok"
done

case "${1:-}" in
-bench)
	echo "== bench smoke: every benchmark, one iteration =="
	go test -run - -bench . -benchtime 1x ./...
	echo "== benchmark smoke: three checked oneshot_pull rounds =="
	# 8 pull nodes over loopback TCP, one DetectCluster per round, every
	# answer against the exact oracle: no failed operation.
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
	# The traced probe recovers k=16 at M=320: every key of the exact
	# top-16, on every seeded vector.
	line=$(bash benchmark/run.sh --workload oneshot_pull --cycles 3 --trace 1 | tail -n 1)
	recall=$(printf '%s\n' "$line" | sed -n 's/.*"recovery\.large_k_recall":{"value":\([0-9.eE+-]*\).*/\1/p')
	echo "recovery.large_k_recall = ${recall:-missing}"
	if ! awk -v r="${recall:-0}" 'BEGIN { exit !(r >= 0.99) }'; then
		echo "verify: oneshot_pull recovery.large_k_recall below 0.99" >&2
		echo "$line" >&2
		exit 1
	fi
	echo "== benchmark gate: ingest_flat wire bytes per observation =="
	# Every root window is checked against the exact sketch, and a small
	# flush must travel as its observations, not as the M-float sketch,
	# each count a varint, the consensus, node and epoch named once in the
	# hello and not in every frame, each frame's length a varint, and a
	# delta's window, seq and folds and its ack's window, aggEpoch and
	# stable left to the connection's context: 4.48 B/obs exactly, run
	# after run (4.92 with those six fields in every exchange, 5.79 with
	# the node and epoch in every delta and a u32 length, 7.29 with the
	# identity in every pairs frame too, 13.32 when every value was an
	# 8-byte float), gated at that plus 2 %.
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
	if ! awk -v w="${wire:-1e9}" 'BEGIN { exit !(w <= 4.57) }'; then
		echo "verify: ingest_flat wire_bytes_per_obs above 4.57" >&2
		exit 1
	fi
	echo "== benchmark gate: standing_tier allocated and wire bytes per observation =="
	# A warm Router read allocates only its answers (pooled route scratch,
	# the last shard asked on the caller's goroutine) and its point
	# answers are 24 bytes each: 32 cycles allocate 10.7-10.8 B/obs,
	# gated at that plus 25 %; 12.8-13.0 with a stored Deviation in every
	# answer, 18-19 with a per-call route split, 29-31 when every relay
	# Forward captured a snapshot it threw away. Its leaves' counts travel
	# as varints, and their frames leave the consensus, node and epoch to
	# the hello, each length a varint, and what the connection implies
	# to its context; its count-sketch windows hold integer counters,
	# which travel as varints: 4.35 wire B/obs exactly (5.01 with every
	# sketch frame's counters as 8-byte floats, 5.05 with the window,
	# seq, folds, aggEpoch and stable in every exchange too, 5.14 with
	# the node and epoch in every delta and a u32 length, 5.33 with the
	# identity in every pairs frame too, 11.31 with every value an 8-byte
	# float), gated at that plus 2 %.
	line=$(bash benchmark/run.sh --workload standing_tier --seed 1 --cycles 32 --trace 0 | tail -n 1)
	echo "$line"
	case "$line" in
	*'"failed":0'*) ;;
	*)
		echo "verify: standing_tier reported failed operations" >&2
		exit 1
		;;
	esac
	alloc=$(printf '%s\n' "$line" | sed -n 's/.*"alloc_bytes_per_obs":{"value":\([0-9.eE+-]*\).*/\1/p')
	echo "alloc_bytes_per_obs = ${alloc:-missing}"
	if ! awk -v a="${alloc:-1e9}" 'BEGIN { exit !(a <= 13.5) }'; then
		echo "verify: standing_tier alloc_bytes_per_obs above 13.5" >&2
		exit 1
	fi
	wire=$(printf '%s\n' "$line" | sed -n 's/.*"wire_bytes_per_obs":{"value":\([0-9.eE+-]*\).*/\1/p')
	echo "wire_bytes_per_obs = ${wire:-missing}"
	if ! awk -v w="${wire:-1e9}" 'BEGIN { exit !(w <= 4.43) }'; then
		echo "verify: standing_tier wire_bytes_per_obs above 4.43" >&2
		exit 1
	fi
	echo "verify: OK (bench smoke)"
	exit 0
	;;
esac

echo "== race: full suite =="
go test -race ./...

echo "== simulation smoke: randomized end-to-end scenarios =="
go test ./internal/simtest -run 'TestSim$' -sim.count=50

echo "== streaming soaks: one scenario harness, five generators, one oracle =="
# Chaos-TCP kills with a node crash and duplicate deltas; snapshot, kill,
# restore and replay; join, leave and eviction; count-sketch point answers;
# the 2-tier × 2-shard tree with a relay kill/restore (internal/simtest).
go test ./internal/simtest -run 'TestStreamSoak$' -sim.streamcount=25
go test ./internal/simtest -run 'TestStreamCrashSoak$' -sim.streamcrashcount=10
go test ./internal/simtest -run 'TestStreamChurnSoak$' -sim.streamchurncount=10
go test ./internal/simtest -run 'TestStreamPointQSoak$' -sim.streampointqcount=10
go test ./internal/simtest -run 'TestStreamTierSoak$' -sim.streamtiercount=10

echo "== protocol explorer: every ordering of the push protocol's events to depth 7 =="
# internal/stream's explorer walks two nodes, a relay and a root through
# the book and outbox calls the product makes, breadth-first with state
# dedup; tier-1 walks it to depth 5. The floor is the distinct states
# depth 7 covered at its first green run with one relay kind, which the
# configs no longer vary (EXPERIMENTS.md pr56), less the 107 states in
# which a late duplicate or dropped-old frame had revived a retired
# member (pr59): fewer means an event or a state went missing.
go test ./internal/stream -count=1 -run '^TestProtocolExplorer$' -explore.depth=7 -explore.floor=694550

echo "== fuzz: 10 s on each decoder of a versioned format, the protocol and the shared BOMP run =="
# The seed corpora run in tier-1; this searches past them: the snapshot
# codec (relay cuts included), the pull request frame, the push frame
# (with its connection context), random event strings through the
# explorer's step function, past its exhaustive depth, and random budget
# lists over repeated measurements through one BOMPBatch, held bit for
# bit to per-item runs.
go test ./internal/stream -run '^$' -fuzz '^FuzzSnapshotDecode$' -fuzztime 10s
go test ./internal/cluster -run '^$' -fuzz '^FuzzRequestFrame$' -fuzztime 10s
go test ./internal/stream -run '^$' -fuzz '^FuzzPushFrame$' -fuzztime 10s
go test ./internal/stream -run '^$' -fuzz '^FuzzProtocol$' -fuzztime 10s
go test ./internal/recovery -run '^$' -fuzz '^FuzzBOMPBatchShared$' -fuzztime 10s

echo "== metrics smoke: /metrics + /healthz on a live csstreamd =="
# A flat daemon serves the one shard of a one-shard map: shard_* too.
printf 'key000\nkey001\nkey002\nkey003\nkey004\nkey005\nkey006\nkey007\n' >"$tmp/keys.txt"
"$tmp/bin/csstreamd" -dict "$tmp/keys.txt" -m 4 -listen 127.0.0.1:0 \
	-metrics-addr 127.0.0.1:0 -report-every 0 >"$tmp/log" 2>&1 &
pids="$pids $!"
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
"$tmp/bin/obscheck" -url "$url" -require \
	shard_index,shard_count,stream_frames_total,stream_malformed_frames_total,stream_frame_outcomes_total,stream_fold_seconds,stream_window,stream_recovery_cache_total,stream_warm_starts_total,stream_batch_refreshes_total,recovery_detect_seconds,recovery_batch_queries_total,recovery_gram_hits_total,recovery_gram_misses_total,recovery_correlate_columns_total,stream_snapshot_commits_total,stream_snapshot_errors_total,stream_snapshot_bytes,stream_snapshot_seconds,stream_membership_events_total,stream_membership_version,stream_membership_tombstones,stream_agg_epoch,stream_shed_frames_total,stream_shed_folds_total,stream_delta_frames_total,pointq_queries_total,pointq_refreshes_total,pointq_outliers_total,pointq_seconds,recovery_solver_picks_total
"$tmp/bin/obscheck" -url "${url%/metrics}/healthz" -health

echo "== hierarchical metrics smoke: tier_*/shard_* on a live relay =="
# Shard 0 of a 2-shard partition (4 of 8 keys, so -m 2 keeps
# compression), served by a root with a relay forwarding into it.
"$tmp/bin/csstreamd" -dict "$tmp/keys.txt" -m 2 -shards 2 -shard-index 0 \
	-listen 127.0.0.1:0 -report-every 0 >"$tmp/rootlog" 2>&1 &
pids="$pids $!"
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
"$tmp/bin/csstreamd" -dict "$tmp/keys.txt" -m 2 -shards 2 -shard-index 0 \
	-relay-upstream "$rootaddr" -relay-id r0 -forward-every 1s \
	-listen 127.0.0.1:0 -metrics-addr 127.0.0.1:0 -report-every 0 >"$tmp/relaylog" 2>&1 &
pids="$pids $!"
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
"$tmp/bin/obscheck" -url "$relayurl" -require \
	tier_forwards_total,tier_forward_errors_total,tier_frames_staged_total,tier_folds_staged_total,tier_up_frames_total,tier_replayed_frames_total,tier_retain_dropped_frames_total,tier_redials_total,tier_unstable_windows,tier_queue_frames,tier_retained_frames,tier_up_seq,tier_up_epoch,tier_root_epoch,tier_root_stable,tier_forward_seconds,shard_index,shard_count,shard_keys,shard_map_version
"$tmp/bin/obscheck" -url "${relayurl%/metrics}/healthz" -health

echo "verify: OK"
