#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it, passing every argument through:
#
#   bash _perfbench/run.sh --workload composite-read --seed 1 --seconds 10 --trace 0
#
# Build output, the Go build cache and the WAL scratch directory all stay
# under $CARGO_TARGET_DIR (default .bench_build) in the checkout. Build
# messages go to standard error; a failed build exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOENV=off
export GOCACHE="$build/gocache" GOPATH="$build/gopath"
(cd "$root/_perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -workdir "$build/perfbench-work" -root "$root" "$@"
