#!/usr/bin/env bash
# Builds the benchmark and the placemon CLI (used for fsck) from this
# checkout, then runs the benchmark. Run from the repository root:
#
#   bash placebench/run.sh --workload observe --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, the go command's own config and
# telemetry files, and the JSON run records go under .bench_build/ in the
# working directory.
set -euo pipefail
root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd "$bench" && go build -o "$out/placebench" . && go build -o "$out/placemon" repro/cmd/placemon)
exec "$out/placebench" --record-dir "$out/records" "$@"
