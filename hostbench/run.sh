#!/usr/bin/env bash
# Builds the host-time benchmark from the checkout it sits in and runs it
# with the given arguments. Run from the repository root:
#
#   bash hostbench/run.sh --workload compute --seed 1 --seconds 20 --trace 0
#   bash hostbench/run.sh compare runs/parent runs/change
#
# Build outputs, the Go build cache, temporary stores and trace files all
# stay under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/hostbench/go.mod" ]]; then
	echo "hostbench: run from the repository root (needs go.mod and hostbench/go.mod)" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/hostbench"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$root/hostbench" && go build -buildvcs=false -o "$build/hostbench/hostbench" .)

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
exec "$build/hostbench/hostbench" -out "$build/hostbench" -commit "$commit" "$@"
