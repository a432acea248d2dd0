#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs one workload:
#
#   bash perfbench/run.sh --workload serve-http --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the root of the checkout: the Go build cache, the toolchain's home
# and temp directories, the binary, the WAL scratch directories and the
# span files. Build output goes to stderr; the last stdout line is the
# result object.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off
go build -C perfbench -o "$build/perfbench" . >&2
exec "$build/perfbench" -workdir "$build" "$@"
