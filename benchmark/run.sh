#!/bin/bash
# Entry point named by BENCHMARK.json: builds the benchmark from source inside
# the checkout it is started in, then becomes it. The Go build cache and every
# temporary file live under .bench_build, so nothing outside the checkout is
# read or written. Arguments are passed through (see `-h`, or README.md here).
set -eu
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The checkout need not be a git repository, and a repository above it is not
# this code's: no revision is stamped, the program asks git itself.
go build -buildvcs=false -o "$build/darwin-benchmark" ./benchmark
exec "$build/darwin-benchmark" "$@"
