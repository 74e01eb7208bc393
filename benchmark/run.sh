#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source and run it,
# keeping everything the toolchain writes (build cache, temporary files,
# the binary) inside the checkout, under .bench_build/.
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#
# The first call in a checkout compiles the standard library too; later
# calls find the binary up to date. `go run ./benchmark` does the same
# with the toolchain's default cache locations.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark/run.sh: $root is not the repository: the benchmark measures the code beside it" >&2
	exit 2
fi
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
