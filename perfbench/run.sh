#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in,
# then runs it. Run from the repository root:
#
#	bash perfbench/run.sh --workload submit --seed 1 --seconds 10 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the
# checkout: the Go build cache, the binary and the deployments' data.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
