#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it from the repository
# root. Every build artefact (the Go build cache, the harness binary, the
# pimnetbench and pimnetd binaries it builds, scratch store directories and
# span files) stays under .bench_build/ at the root.
#
#   bash bench/run.sh -workload regen -seed 1
#   bash bench/run.sh -workload all -seed 1 -out .bench_build/results.jsonl
#   bash bench/run.sh compare parent.jsonl change.jsonl
set -euo pipefail

cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/go-tmp"

export GOENV=off
export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export GOTMPDIR="$build/go-tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false

go build -C bench -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
