#!/usr/bin/env bash
# run.sh — build hxbench, the repository benchmark, and run it from the
# repository root with the given arguments. Build caches, binaries and
# scratch files all stay under .bench_build/ in the checkout.
#
#   bash bench/run.sh -workload paper-small -seed 1 -trace 0
#   bash bench/run.sh -workload all -seed 1 -out results.json
#   bash bench/run.sh compare <parent-dir> <change-dir>
set -euo pipefail
cd "$(dirname "$0")/.."

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
# Keep every cache the go command writes inside the checkout, and never
# reach for the network: the module has no dependencies to download.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
  GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
  GOTOOLCHAIN=local GOPROXY=off

go -C bench build -o "$build/hxbench" ./hxbench
exec "$build/hxbench" "$@"
