#!/usr/bin/env bash
# Builds the visdbperf benchmark from source and runs it with the
# arguments given, from the root of a checkout of the repository:
#
#   bash visdbperf/run.sh --workload drag --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, the generated segment
# files and the span dumps of traced runs.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/visdbperf"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
# The go command keeps its telemetry counters under the user config
# directory.
export XDG_CONFIG_HOME="$out/config"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod

(cd "$root/visdbperf" && go build -o "$out/visdbperf" .) >&2
exec "$out/visdbperf" -out "$out" "$@"
