#!/usr/bin/env bash
# Builds the wall-clock end-to-end benchmark from this checkout's sources
# and runs it with the given flags, e.g.
#
#   bash e2ebench/run.sh --workload type --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files,
# Go's configuration directory and the binary all live under .bench_build/
# so nothing is written outside the checkout, and no module is fetched
# (the benchmark depends only on the repository's own packages).
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/e2ebench" build -o "$build/e2ebench" .
exec "$build/e2ebench" "$@"
