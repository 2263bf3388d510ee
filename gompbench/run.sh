#!/usr/bin/env bash
# Builds gompbench from the checkout's sources and runs it from the
# checkout root, e.g.
#
#   bash gompbench/run.sh --workload regions --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, generated inputs and spans.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C "$root/gompbench" -o "$out/gompbench" . 1>&2
exec "$out/gompbench" -root "$root" -work "$out/work" "$@"
