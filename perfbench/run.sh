#!/usr/bin/env bash
# Builds the FLEX benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload cold-analysis --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ in the working directory. The build fails, and so does
# this script, when the FLEX sources are not beside perfbench/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
