#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-fused --seed 1 --seconds 30 --trace 0
#
# Every file the Go toolchain writes (build cache, module cache, telemetry,
# the binary) stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	XDG_CACHE_HOME="$build/home/.cache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# The git revision is stamped into the binary when the checkout is a git
# work tree; where reading it fails, build without it.
go build -C "$root/perfbench" -o "$build/perfbench" . 2>/dev/null ||
	go build -C "$root/perfbench" -buildvcs=false -o "$build/perfbench" .
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
