#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload emr-day --seed 1 --seconds 10 --trace 0
#
# Every build artefact (Go build cache, binary, scratch data directories)
# stays under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" -workdir "$out" "$@"
