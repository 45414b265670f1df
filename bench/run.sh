#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# and runs it with the given arguments. The Go build cache and every other
# file the toolchain writes stay under .bench_build/, so a run reads and
# writes nothing outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

(
	cd "$here"
	GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false \
		go build -o "$build/bench" .
)

cd "$root"
exec "$build/bench" "$@"
