#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload f3-xeon --seed 42 --seconds 15 --trace 0
#
# The binary, Go's build cache and temporary files, run directories and
# traces all live under .bench_build/ in the repository root, so a run
# writes nothing outside the checkout. The build needs no network: the
# only module the benchmark requires is the repository itself, replaced
# by ../ in bench/go.mod.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd bench && go build -o "$out/atomicbench" ./cmd/atomicbench)
exec "$out/atomicbench" -root "$root" -workdir "$out" "$@"
