#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run from the root of a checkout:
#
#   bash e2ebench/run.sh --workload incident --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, registry,
# reports, span files) stays under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build/e2ebench"
mkdir -p "$out/home"

# Keep the toolchain's caches and config inside the checkout, build with the
# installed toolchain only, and never reach for a module proxy.
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$here" build -o "$out/e2ebench" .
exec "$out/e2ebench" -out "$out" "$@"
