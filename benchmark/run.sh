#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark (see main.go).
# Build outputs, the Go build cache and the benchmark's scratch state
# stay under .bench_build in the working directory.
set -euo pipefail
work="$PWD/.bench_build"
mkdir -p "$work/tmp"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOTMPDIR="$work/tmp" \
	XDG_CONFIG_HOME="$work/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go -C benchmark build -o "$work/benchmark" .
exec "$work/benchmark" "$@"
