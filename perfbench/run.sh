#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload exact-dhc2 --seed 1 --seconds 25 --trace 0
#
# Everything it writes (build cache, binary, spans, profiles, digests) stays
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/perfbench"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOFLAGS=
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOTELEMETRY=off
export XDG_CONFIG_HOME="$build/config"

(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" --out .bench_build/perfbench "$@"
