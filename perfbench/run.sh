#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload slot-small --seed 1 --seconds 30 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, module
# and telemetry state) and everything the benchmark writes stays under
# .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C perfbench build -o "$build/perfbench" .

# Provenance for the output header: the git commit when there is one, and a
# hash of the Go sources, which identifies the code in any checkout.
PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
PERFBENCH_SOURCE=$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)
export PERFBENCH_COMMIT PERFBENCH_SOURCE
exec "$build/perfbench" "$@"
