#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload cluster-comparison --seed 1 --seconds 30 --trace 0
#
# Every build output (Go build cache, temporary files, the toolchain's
# telemetry counters, the binary) stays under .bench_build/ in the working
# directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a repository checkout (go.mod, internal/ and perfbench/ are needed)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
(
	export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
		GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
		GOTOOLCHAIN=local GOFLAGS= GOWORK=off
	cd "$root/perfbench" && go build -o "$build/perfbench" .
)
exec "$build/perfbench" "$@"
