#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through:
#
#   bash perfbench/run.sh --workload kv-zipf --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary,
# traces) goes under .bench_build at the repository root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# Telemetry off, so the go command starts no background process.
go telemetry off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
