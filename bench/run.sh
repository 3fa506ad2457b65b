#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build writes (the Go build cache included) stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOMAXPROCS=$(nproc)

# The benchmark is a module of its own that imports the repository's
# packages through a replace directive, so it builds only inside a
# checkout of the repository.
(cd "$root/bench" && go build -o "$build/biot-e2e-bench" .)

cd "$root"
exec "$build/biot-e2e-bench" "$@"
