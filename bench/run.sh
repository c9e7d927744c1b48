#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it is run in, then
# runs it. Run from the repository root:
#
#   bash bench/run.sh --workload serve_churn --seed 1 --seconds 25 --trace 0
#
# Every argument is passed to the benchmark binary (see bench/README.md).
# The binary, the Go build cache and the go command's scratch and config
# files all live under .bench_build/, so a run writes nothing outside the
# checkout and a fresh checkout builds from source.
set -euo pipefail

root=$PWD
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/bench" && go build -o "$build/bench" .) >&2
exec "$build/bench" "$@"
