#!/usr/bin/env bash
# Compares two commits on one benchmark workload by alternating pairs.
#
#   bash scripts/pairs.sh PARENT [CHANGE] -workload W -pairs N -seed S [-seconds T]
#
# PARENT and CHANGE are commits; CHANGE defaults to the working tree
# (tracked and untracked files, ignored ones left out).  Each side is
# exported into its own temporary directory and built once through
# bench/run.sh.  Pair i (1-based) runs both sides on seed S+i-1, the
# parent first in odd pairs and second in even ones, each for T seconds
# (default 20, BENCHMARK.json's run_seconds) with --trace 0.  The runs go
# to scripts/pairs, which prints the EXPERIMENTS.md table (every run, the
# medians, the change in %, the parent's interquartile range and the
# wins) and a verdict per metric: better, worse or unresolved.
set -euo pipefail
usage() {
	echo "usage: bash scripts/pairs.sh PARENT [CHANGE] -workload W -pairs N -seed S [-seconds T]" >&2
	exit 2
}
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
parent="" change="" workload="" pairs="" seed="" seconds=20
while [ $# -gt 0 ]; do
	case "$1" in
	-workload) workload="${2:?}"; shift 2 ;;
	-pairs) pairs="${2:?}"; shift 2 ;;
	-seed) seed="${2:?}"; shift 2 ;;
	-seconds) seconds="${2:?}"; shift 2 ;;
	-*) usage ;;
	*)
		if [ -z "$parent" ]; then parent="$1"; elif [ -z "$change" ]; then change="$1"; else usage; fi
		shift ;;
	esac
done
[ -n "$parent" ] && [ -n "$workload" ] && [ -n "$pairs" ] && [ -n "$seed" ] || usage

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# export_side REV DIR writes the files of REV (the working tree when REV is
# empty) into DIR.  A plain export, not a git worktree: it leaves nothing
# in the repository and can carry uncommitted changes.
export_side() {
	mkdir -p "$2"
	if [ -z "$1" ]; then
		(cd "$repo" && git ls-files -z -co --exclude-standard |
			while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
			tar -cf - --null -T -) | tar -xf - -C "$2"
	else
		git -C "$repo" archive "$1" | tar -xf - -C "$2"
	fi
}
export_side "$parent" "$tmp/parent"
export_side "$change" "$tmp/change"
for side in parent change; do
	# -json only prints BENCHMARK.json: the call is run.sh's build.
	(cd "$tmp/$side" && bash bench/run.sh -json >/dev/null)
done

runs="$tmp/runs.tsv"
: >"$runs"
run_side() { # run_side SIDE PAIR SEED
	local line
	line="$(cd "$tmp/$1" && .bench_build/sialbench --workload "$workload" --seed "$3" \
		--seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)" || true
	printf '%s\t%s\t%s\t%s\n' "$2" "$1" "$3" "${line:-{\}}" >>"$runs"
	echo "pair $2 seed $3 $1: $line" >&2
}
for ((i = 1; i <= pairs; i++)); do
	s=$((seed + i - 1))
	if ((i % 2 == 1)); then
		run_side parent "$i" "$s"
		run_side change "$i" "$s"
	else
		run_side change "$i" "$s"
		run_side parent "$i" "$s"
	fi
done
(cd "$repo" && go run ./scripts/pairs -workload "$workload" -benchmark BENCHMARK.json <"$runs")
