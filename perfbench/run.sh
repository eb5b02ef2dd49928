#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload mixed_small --seed 1 --seconds 30 --trace 0
# Build cache, temporary files, traces and data directories all stay under
# .bench_build in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
