#!/usr/bin/env bash
# Compares the checkout's end-to-end benchmark metrics against another
# commit's, in alternating pairs:
#
#   scripts/pair.sh <git-ref> [run.sh args]
#   WORKLOADS=standing_tier scripts/pair.sh HEAD~1 --seed 1 --cycles 32
#
# The ref is exported (git archive) into a temporary tree under TMPDIR,
# removed on exit, and both trees run benchmark/run.sh, which builds
# each from its own sources. For each workload (default: every workload
# BENCHMARK.json names; do not pass --workload), at GOMAXPROCS=1 and at
# nproc, it runs ten pairs, the ref first in odd pairs and the checkout
# first in even ones. The checkout side is the working tree, uncommitted
# edits included. Per metric it prints each side's median and quartiles
# and the pairs the checkout won (strictly better, in BENCHMARK.json's
# direction), and per side the operations that failed. Two rows follow
# the gated metrics: the machine slowdown each run printed, and raw
# set-up, setup_s times that slowdown, which is what the set-up code
# cost before the division. It exits 1 when any run failed an operation
# or printed no result.
set -euo pipefail
if [ $# -lt 1 ]; then
	echo "usage: scripts/pair.sh <git-ref> [run.sh args]" >&2
	exit 2
fi
ref=$1
shift
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
pairs=10
procs="1 $(nproc)"
spec="$root/BENCHMARK.json"

# BENCHMARK.json keeps one field a line: the workload names, then each
# end-to-end metric's name and direction.
workloads=${WORKLOADS:-$(awk '/"workloads"/ { on = 1 } /"end_to_end"/ { on = 0 }
	on && /"name"/ { gsub(/[",]/, "", $2); print $2 }' "$spec")}
metrics=$(awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
	on && /"name"/ { gsub(/[",]/, "", $2); n = $2 }
	on && /"better"/ { gsub(/[",]/, "", $2); print n, $2 }' "$spec")

work="$(mktemp -d "${TMPDIR:-/tmp}/pair.XXXXXX")"
trap 'rm -rf "$work"' EXIT
mkdir "$work/ref"
git -C "$root" archive "$ref" | tar -x -C "$work/ref"
echo "pair.sh: $ref ($(git -C "$root" rev-parse --short "$ref")) in $work/ref against the checkout; $pairs pairs, GOMAXPROCS $procs, run.sh $*"

# run SIDE TREE GOMAXPROCS PAIR WORKLOAD appends "side pair metric value"
# lines to the results file, "side pair failed n" included.
run() {
	local side=$1 tree=$2 p=$3 pair=$4 w=$5 log line slow setup
	shift 5
	log="$work/$w.$p.$pair.$side.log"
	GOMAXPROCS=$p bash "$tree/benchmark/run.sh" --workload "$w" --trace 0 "$@" >"$log" 2>&1 || true
	line=$(grep '^{"correct"' "$log" | tail -n 1 || true)
	if [ -z "$line" ]; then
		echo "pair.sh: $side run of $w (GOMAXPROCS=$p, pair $pair) printed no result; it ended:" >&2
		tail -n 5 "$log" >&2
		echo "$side $pair failed -1" >>"$results"
		return
	fi
	echo "$side $pair failed $(echo "$line" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p')" >>"$results"
	while read -r name _; do
		echo "$side $pair $name $(echo "$line" | sed -n "s/.*\"$name\":{\"value\":\([^,}]*\).*/\1/p")" >>"$results"
	done <<<"$metrics"
	slow=$(sed -n 's/.*machine slowdown \([0-9.]*\).*/\1/p' "$log")
	setup=$(echo "$line" | sed -n 's/.*"setup_s":{"value":\([^,}]*\).*/\1/p')
	echo "$side $pair slowdown $slow" >>"$results"
	echo "$side $pair raw_setup_s $(awk -v a="$setup" -v b="$slow" 'BEGIN { print a * b }')" >>"$results"
}

# quartiles reads numbers, one a line, and prints "median [q1 q3]"
# (linear interpolation between order statistics).
quartiles() {
	sort -g | awk '{ v[NR] = $1 }
	function q(p,  h, i) { h = (NR - 1) * p + 1; i = int(h); return v[i] + (h - i) * (v[i + 1 < NR ? i + 1 : NR] - v[i]) }
	END { if (NR) printf "%.6g [%.6g %.6g]", q(0.5), q(0.25), q(0.75); else printf "-" }'
}

status=0
for w in $workloads; do
	for p in $procs; do
		results="$work/$w.$p.results"
		: >"$results"
		for pair in $(seq 1 "$pairs"); do
			if [ $((pair % 2)) = 1 ]; then
				run ref "$work/ref" "$p" "$pair" "$w" "$@"
				run new "$root" "$p" "$pair" "$w" "$@"
			else
				run new "$root" "$p" "$pair" "$w" "$@"
				run ref "$work/ref" "$p" "$pair" "$w" "$@"
			fi
		done
		echo
		echo "$w GOMAXPROCS=$p"
		printf '  %-22s %-7s %-36s %-36s %s\n' metric better "$ref median [q1 q3]" "checkout median [q1 q3]" "checkout won"
		while read -r name better; do
			won=$(awk -v m="$name" -v b="$better" '$3 == m { v[$1, $2] = $4; n[$2] = 1 }
				END { for (k in n) { t++; if ((b == "lower" && v["new", k] < v["ref", k]) || (b == "higher" && v["new", k] > v["ref", k])) w++ }
				if (b == "-") printf "-"; else printf "%d/%d", w, t }' "$results")
			printf '  %-22s %-7s %-36s %-36s %s\n' "$name" "$better" \
				"$(awk -v m="$name" '$1 == "ref" && $3 == m { print $4 }' "$results" | quartiles)" \
				"$(awk -v m="$name" '$1 == "new" && $3 == m { print $4 }' "$results" | quartiles)" "$won"
		done <<<"$metrics"$'\n'"slowdown -"$'\n'"raw_setup_s lower"
		for side in ref new; do
			failed=$(awk -v s="$side" '$1 == s && $3 == "failed" { if ($4 < 0) bad = 1; else f += $4 } END { print bad ? "no result" : f + 0 }' "$results")
			echo "  $side failed: $failed"
			if [ "$failed" != 0 ]; then
				status=1
			fi
		done
	done
done
exit $status
