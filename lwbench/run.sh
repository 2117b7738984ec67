#!/usr/bin/env bash
# Builds the lwbench command from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash lwbench/run.sh --workload slice-churn --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the control plane's WAL directories
# all live under .bench_build/ in the current directory.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "lwbench: run from the repository root (no go.mod or internal/ here)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache"
export GOMODCACHE="$out/go-mod"
export GOTOOLCHAIN=local
export GOFLAGS=
go build -o "$out/lwbench" ./lwbench
exec "$out/lwbench" "$@"
