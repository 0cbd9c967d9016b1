#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash perfbench/run.sh --workload campaign-dns --seed 11 --seconds 30 --trace 0
#
# Run from the repository root. The Go build cache, temporary files and
# the binary all stay under .bench_build/ in that directory, and no
# module or toolchain is fetched. Outside a checkout of the repository
# (no ../go.mod next to perfbench/) the build fails and so does this
# script, before anything is measured.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" GOFLAGS=-buildvcs=false GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off

go -C perfbench build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
