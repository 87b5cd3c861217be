#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload chain-bulk-tcp --seed 1 --seconds 10 --trace 0
#
# The build cache, temporary files and span dumps stay under .bench_build
# in the current directory, so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	GOPATH="$build/gopath" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
