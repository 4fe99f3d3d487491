#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload stream-ingest --seed 1 --seconds 10 --trace 0
#
# Every file the Go toolchain and the benchmark write (build cache, binary,
# temp dirs, profiles) lands under the build directory inside the checkout:
# $CARGO_TARGET_DIR when set, .bench_build otherwise.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$build" = /* ]] || build="$root/$build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config" "$build/cache"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export GOTELEMETRY=off

go build -C "$root/perfbench" -o "$build/perfbench" . >&2
exec "$build/perfbench" -build-dir "$build" "$@"
