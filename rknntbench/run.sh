#!/usr/bin/env bash
# Builds the RkNNT end-to-end benchmark from the source tree it sits in,
# then runs it. Run from the repository root:
#
#   bash rknntbench/run.sh --workload cold-query --seed 1 --seconds 30 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in
# the repository root: the Go build cache, temporary files, the binary,
# checkpoint files and span dumps. The build needs the repository's own
# go.mod one directory up; without it the script fails before printing
# a result.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench_dir")
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export GOENV=off
export GOPROXY=off
export GOTOOLCHAIN=local
export CGO_ENABLED=0
# Provenance asks git for the commit; keep it from searching for a
# repository above the tree the benchmark runs in.
export GIT_CEILING_DIRECTORIES=$(dirname "$root")
export GIT_CONFIG_NOSYSTEM=1

(cd "$bench_dir" && go build -o "$build/rknntbench" .) >&2
exec "$build/rknntbench" --out "$build/rknntbench-out" "$@"
