#!/usr/bin/env bash
# Builds pmkvd and the benchmark from this checkout, then runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload kv-write --seed 1 --seconds 12 --trace 0
#
# Build outputs, the Go build cache, span files and full results all go
# under .bench_build/ at the root, so nothing outside the checkout is
# written.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/pmkvd" ./cmd/pmkvd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --pmkvd "$out/pmkvd" --out "$out/perfbench-out" "$@"
