#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. The Go build cache, the go command's
# telemetry and config directory and the binary stay in .bench_build, so
# nothing is written outside the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
go -C perfbench build -o "$out/perfbench-bin" .
exec "$out/perfbench-bin" "$@"
