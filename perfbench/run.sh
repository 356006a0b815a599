#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing
# every argument through. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload fi-monitored --seed 1 --seconds 20 --trace 0
#
# The build, its Go cache and everything the benchmark writes stay in
# .bench_build under the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
if ! (cd "$(dirname "$0")" && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$out/perfbench" "$@"
