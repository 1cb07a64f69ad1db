#!/usr/bin/env bash
# Measures a change against its parent with the host-time benchmark:
# runs PAIRS alternating pairs of untraced runs on two checkouts (pair i
# uses seed i on both sides; even pairs run the parent first, odd pairs
# the change), saves every run's output, and compares the two sets.
#
#   bash hostbench/pairs.sh PARENT_DIR CHANGE_DIR [PAIRS] [WORKLOAD...]
#
# Run it from the root of the checkout whose BENCHMARK.json sets the
# command, run length and bounds; both checkouts run that same command,
# so both must contain this benchmark. Outputs go to
# ${CARGO_TARGET_DIR:-.bench_build}/pairs/{parent,change}.
set -euo pipefail

if [[ $# -lt 2 ]]; then
	sed -n '2,12p' "$0" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
pairs=${3:-10}
shift $(($# < 3 ? $# : 3))
workloads=("$@")
if [[ ${#workloads[@]} -eq 0 ]]; then
	workloads=(compute syscall-io racy-recovery serve-open-loop)
fi

readarray -t cmd < <(python3 -c 'import json; [print(a) for a in json.load(open("BENCHMARK.json"))["command"]]')
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
out="$(pwd)/${CARGO_TARGET_DIR:-.bench_build}/pairs"
rm -rf "$out"
mkdir -p "$out/parent" "$out/change"

one() { # side dir workload seed
	(cd "$2" && "${cmd[@]}" --workload "$3" --seed "$4" --seconds "$seconds" --trace 0) \
		>"$out/$1/$3-$(printf %03d "$4").txt"
}

for wl in "${workloads[@]}"; do
	for ((i = 1; i <= pairs; i++)); do
		if ((i % 2 == 0)); then
			one parent "$parent" "$wl" "$i"
			one change "$change" "$wl" "$i"
		else
			one change "$change" "$wl" "$i"
			one parent "$parent" "$wl" "$i"
		fi
		echo "$wl pair $i/$pairs done" >&2
	done
done
"${cmd[@]}" compare -bench BENCHMARK.json "$out/parent" "$out/change"
