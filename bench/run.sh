#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root:
#
#   bash bench/run.sh                      every workload, untraced and traced
#   bash bench/run.sh --workload point_warm --seed 7 --seconds 15 --trace 0
#   bash bench/run.sh -selfcheck
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache and temp files under .bench_build/, results under bench/out/.
set -euo pipefail

root=$(pwd)
[ -f "$root/bench/go.mod" ] || { echo "bench/run.sh: run it from the repository root" >&2; exit 2; }
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
# The module has no dependencies outside this repository, so nothing is
# downloaded; these only keep go from needing a home directory.
export GOPATH="${GOPATH:-$build/gopath}"
export GOMODCACHE="${GOMODCACHE:-$build/gomodcache}"

go build -C "$root/bench" -o "$build/ml4db-bench" .
exec "$build/ml4db-bench" "$@"
