#!/usr/bin/env bash
# Builds the benchmark harness from this checkout's sources and runs it
# with the given flags, e.g.
#
#	bash bench/run.sh --workload sweep-pool --seed 3 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and
# everything the run writes stay under .bench_build/ in the current
# directory; the build is incremental, so only the first run compiles.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
go build -C bench -o "$out/bench" .
exec "$out/bench" -workdir "$out/work" "$@"
