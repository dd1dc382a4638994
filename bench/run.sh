#!/usr/bin/env bash
# Builds the tpstabench harness from source and runs the benchmark.
# Run it from the repository root.
#
# One workload, in one fresh process; the last line of standard output
# is the JSON summary:
#
#   bash bench/run.sh --workload kworst_iscas --seed 1 --seconds 8 --trace 0
#
# Every workload, each in a fresh process, appending one JSON line per
# run (with the host) to --out (default $BUILD/results.jsonl); --trace
# adds one traced pass:
#
#   bash bench/run.sh --seed 1 [--seconds 8] [--trace] [--out FILE]
#
# Everything the build writes stays under $BUILD: $CARGO_TARGET_DIR
# when set, else .bench_build.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp" "$build/config"

# Keep the Go toolchain offline and its caches inside the build
# directory.
export GOCACHE=$build/go-cache GOMODCACHE=$build/go-mod GOPATH=$build/go-path
export GOTMPDIR=$build/tmp TMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

bin=$build/tpstabench
(cd "$root/bench" && go build -o "$bin" ./tpstabench)

single=0
for arg in "$@"; do
	case $arg in --workload | -workload | --workload=* | -workload=*) single=1 ;; esac
done
if [ "$single" = 1 ]; then
	exec "$bin" "$@"
fi

seed=1 seconds=8 trace=0 out=$build/results.jsonl
while [ $# -gt 0 ]; do
	case $1 in
	--seed) seed=$2; shift 2 ;;
	--seconds) seconds=$2; shift 2 ;;
	--trace) trace=1; shift ;;
	--out) out=$2; shift 2 ;;
	*) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
	esac
done

cpu_model=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1)
host=$(printf '{"nproc":%d,"gomaxprocs":%d,"cpu":"%s","go":"%s"}' \
	"$(nproc)" "${GOMAXPROCS:-$(nproc)}" "$cpu_model" "$(go env GOVERSION)")

passes=0
[ "$trace" = 1 ] && passes="0 1"
status=0
for t in $passes; do
	for w in $("$bin" -list); do
		line=$("$bin" -workload "$w" -seed "$seed" -seconds "$seconds" -trace "$t" | tail -n 1) || status=1
		printf '{"workload":"%s","seed":%d,"trace":%d,"host":%s,"result":%s}\n' \
			"$w" "$seed" "$t" "$host" "${line:-null}" >>"$out"
		echo "$w trace=$t: $line"
	done
done
echo "appended to $out"
exit $status
