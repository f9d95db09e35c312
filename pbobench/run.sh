#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash pbobench/run.sh --workload table1-lpr --seed 1 --seconds 30 --trace 0
#
# Every build artifact (Go build cache, temporary files, the binary) stays
# under .bench_build in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C pbobench build -o "$out/pbobench" .
exec "$out/pbobench" "$@"
