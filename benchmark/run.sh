#!/usr/bin/env bash
# Builds the benchmark program and runs it. Run from the repository root:
#
#   bash benchmark/run.sh -workload sim_trade2_base -seed 1 -seconds 30
#   bash benchmark/run.sh -workload all -out runs.jsonl
#   bash benchmark/run.sh compare parent.jsonl change.jsonl
#
# Everything the build and the run write stays under .bench_build/ in
# the working directory: the Go caches, the built programs, generated
# captures, profiles and spans.
set -euo pipefail

b="$PWD/.bench_build"
mkdir -p "$b/tmp"
export GOCACHE="$b/gocache" GOMODCACHE="$b/gomod" GOPATH="$b/gopath" \
	GOTMPDIR="$b/tmp" TMPDIR="$b/tmp" XDG_CONFIG_HOME="$b/config" \
	GOTOOLCHAIN=local GOPROXY=off
go -C benchmark build -o "$b/bin/benchmark" .
exec "$b/bin/benchmark" "$@"
