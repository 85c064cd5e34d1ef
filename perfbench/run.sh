#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fig8 --seed 1 --seconds 15 --trace 0
#
# Build outputs and the Go build cache stay in .bench_build/ at the root;
# result files go to .bench_out/.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

# Keep every file the Go command writes (build cache, module cache,
# telemetry counters) inside the build directory, and use no network.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
