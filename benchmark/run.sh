#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark from source
# into .bench_build/ at the root of the checkout (compiler cache
# included, so nothing is written outside the checkout) and runs it from
# that root with the arguments given.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
# XDG_CONFIG_HOME keeps the go command's own counters in there too.
(cd "$root/benchmark" && XDG_CONFIG_HOME="$build/config" go build -o "$build/jm-benchmark" .) >&2
cd "$root"
exec "$build/jm-benchmark" "$@"
