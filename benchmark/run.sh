#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the given
# arguments. Everything the toolchain writes (build cache, temporary files,
# the binary) stays under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local CGO_ENABLED=0
go build -o "$build/xlink-benchmark" ./benchmark
exec "$build/xlink-benchmark" "$@"
