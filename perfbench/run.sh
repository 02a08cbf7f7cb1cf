#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of a checkout. The binary, the Go build cache and
# the traced run's span and layer files all stay under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off
mkdir -p "$out"
(cd perfbench && go build -o "$out/perfbench.bin" .) >&2
exec "$out/perfbench.bin" "$@"
