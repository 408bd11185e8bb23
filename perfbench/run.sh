#!/usr/bin/env bash
# Builds the serve-path benchmark from the checkout's own sources and runs
# it from the checkout root; every argument is passed through (see
# perfbench/README.md). Build outputs stay under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
# Everything the go command writes (build cache, temp files, module and
# telemetry state) stays under .bench_build.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
cd "$root"
exec "$out/perfbench" -commit "$commit" "$@"
