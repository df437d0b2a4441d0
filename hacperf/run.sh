#!/usr/bin/env bash
# Builds the benchmark and the haccd server from source, then runs one
# workload. Run it from the repository root:
#
#   bash hacperf/run.sh --workload kernels --seed 1 --seconds 10 --trace 0
#
# Everything it writes stays under the build directory, which is
# $CARGO_TARGET_DIR when set and .bench_build otherwise. That includes
# the Go build cache, so the first run in a fresh checkout compiles the
# standard library and is slow; later runs reuse it.
set -euo pipefail

if [[ ! -f go.mod || ! -f hacperf/go.mod ]]; then
	echo "hacperf: run from the repository root (go.mod and hacperf/go.mod must exist)" >&2
	exit 2
fi
root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out=$root/$out
mkdir -p "$out/bin" "$out/gocache" "$out/gomodcache" "$out/tmp"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

go build -o "$out/bin/haccd" ./cmd/haccd
(cd hacperf && go build -o "$out/bin/hacperf" .)
exec "$out/bin/hacperf" --haccd "$out/bin/haccd" --workdir "$out/tmp" "$@"
