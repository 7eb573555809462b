#!/usr/bin/env bash
# The benchmark driver's entry point (BENCHMARK.json "command"): build
# ./perf from source into .bench_build/ and run it with the driver's
# arguments. Everything the build and the run write — Go's build cache,
# temp files, journals — stays under .bench_build/ in the checkout.
# People can skip this and `go run ./perf ...` directly.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
export TMPDIR="$build/tmp"

go build -o "$build/perf" ./perf
exec "$build/perf" "$@"
