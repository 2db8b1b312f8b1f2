#!/usr/bin/env bash
# Build the fleet benchmark from source into .bench_build/ of the checkout it
# runs from, then hand over to it. Everything the build and the run write
# (compiler cache, temporary files, WAL directories, traces) stays inside the
# checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go build -C "$here" -o "$out/wilobench" .
cd "$root"
exec "$out/wilobench" "$@"
