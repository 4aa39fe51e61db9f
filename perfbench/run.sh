#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it with the
# given arguments (--workload, --seed, --seconds, --trace). Every build
# artifact, the Go build cache and the span files stay under .bench_build at
# the checkout root; the result is the last line of standard output.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
