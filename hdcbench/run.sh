#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash hdcbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#   bash hdcbench/run.sh --steady <rounds> --seconds <s>
#
# Every build artifact and cache stays under .bench_build in the current
# directory, so a run writes nothing outside the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
here="$(cd "$(dirname "$0")" && pwd)"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/hdcbench" .)
exec "$out/hdcbench" "$@"
