#!/usr/bin/env bash
# Builds edgerepd and the benchmark program from this checkout, then runs
# it with the arguments given. Run from the repository root:
#
#   bash perfbench/run.sh --workload nosync-burst --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binaries, journals and daemon logs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# With telemetry on (the default for a fresh config dir) every go command
# starts a detached sidecar process that outlives the build; turn it off.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
if [ ! -f go.mod ] || [ ! -d cmd/edgerepd ]; then
	echo "run.sh: no edgerepd source here; run from the repository root" >&2
	exit 1
fi
go build -o "$out/edgerepd" ./cmd/edgerepd
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -daemon "$out/edgerepd" -work "$out" "$@"
