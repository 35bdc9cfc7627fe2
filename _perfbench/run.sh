#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash _perfbench/run.sh --workload paper-het --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build output, cache and run file
# goes under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

# Keep the toolchain's caches, config and telemetry inside the checkout,
# and never reach for a module proxy: the benchmark imports only the
# repository and the standard library.
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/xdg-config" XDG_CACHE_HOME="$out/xdg-cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off CGO_ENABLED=0
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
mkdir -p "$GOTMPDIR"

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/run" "$@"
