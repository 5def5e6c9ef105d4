#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload scan-chip --seed 1 --seconds 8 --trace 0
#
# Build outputs and the Go build cache stay in .bench_build/; run scratch
# and trace files go to .bench_out/.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# Keep every file the go command writes inside the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
