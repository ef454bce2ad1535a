#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it:
#
#   bash bench/run.sh --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
#   bash bench/run.sh --compare A B
#
# Everything the build and the run write stays under bench/: the Go build
# and module caches in bench/.build, results in bench/out (unless --out
# says otherwise). The benchmark is a module of its own (bench/go.mod)
# that imports the repository's packages from the directory above.
set -euo pipefail
dir=$(cd "$(dirname "$0")" && pwd)
build="$dir/.build"
mkdir -p "$build"
# Keep the go command itself inside the checkout too: its caches, its
# GOPATH, its env file and its telemetry counters (under XDG_CONFIG_HOME).
(
  cd "$dir"
  export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
  export XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS=-modcacherw
  export GOTOOLCHAIN=local GOPROXY=off
  go build -o "$build/bench" .
)
exec "$build/bench" -out "$dir/out" "$@"
