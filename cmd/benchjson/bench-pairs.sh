#!/usr/bin/env bash
# Measures the working tree against a base revision end to end, the
# body of `make bench-pairs`. Run it from the repository root:
#
#   bash cmd/benchjson/bench-pairs.sh BASE WORKLOAD PAIRS SEED
#
# `make bench-pairs` passes its BASE, WORKLOAD, PAIRS and SEED and holds
# their defaults.
#
# BASE is exported with git archive into .bench_pairs/ and built there
# by its own bench/run.sh; the working tree builds in place. Each side
# builds in its own directory (CARGO_TARGET_DIR), and the side that
# runs first alternates from pair to pair. A pair is two runs of
#
#   bash bench/run.sh --workload WORKLOAD --seed SEED --seconds 8 --trace 0
#
# and each run's summary line is appended to
# .bench_pairs/pairs-WORKLOAD-seedSEED.jsonl, which cmd/benchjson -pairs
# summarizes against BENCHMARK.json's bounds: it exits 1 when a run
# failed or a change median is past its bound.
set -euo pipefail

usage="usage: bench-pairs.sh BASE WORKLOAD PAIRS SEED"
base=${1:?$usage}
workload=${2:?$usage}
pairs=${3:?$usage}
seed=${4:?$usage}

root=$(pwd)
dir=$root/.bench_pairs
rev=$(git rev-parse --verify "$base^{commit}")
src=$dir/base-$rev
if [ ! -d "$src" ]; then
	rm -rf "$src.tmp"
	mkdir -p "$src.tmp"
	git archive "$rev" | tar -x -C "$src.tmp"
	mv "$src.tmp" "$src"
fi

log=$dir/pairs-$workload-seed$seed.jsonl
: >"$log"
for i in $(seq 1 "$pairs"); do
	order="parent change"
	if [ $((i % 2)) = 0 ]; then
		order="change parent"
	fi
	for side in $order; do
		tree=$root
		if [ "$side" = parent ]; then
			tree=$src
		fi
		line=$(cd "$tree" && CARGO_TARGET_DIR=$dir/build-$side bash bench/run.sh \
			--workload "$workload" --seed "$seed" --seconds 8 --trace 0 | tail -n 1) || true
		printf '{"pair":%d,"side":"%s","result":%s}\n' "$i" "$side" "${line:-null}" >>"$log"
		echo "bench-pairs: $workload pair $i/$pairs $side: ${line:-failed}" >&2
	done
done
go run ./cmd/benchjson -pairs "$log"
