#!/bin/sh
# The driver's entry point: build the benchmark inside the checkout, then
# run it with the arguments given. The build cache and the binary stay
# under .bench_build, so nothing is written outside the checkout.
set -e
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/go-cache" GOTOOLCHAIN=local
go build -o .bench_build/intddos-benchmark ./benchmark
exec .bench_build/intddos-benchmark "$@"
