#!/usr/bin/env bash
# Builds drmserver, tracecheck and the drmperf command from the checkout
# this script runs in, then runs drmperf with the given arguments.
# Run it from the repository root:
#
#   bash drmperf/run.sh --workload issue-durable --seed 1 --seconds 20 --trace 0
#
# Every build product, Go cache and scratch file lands under .bench_build/
# in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOWORK=off GOTOOLCHAIN=local GOFLAGS=
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"

go telemetry off >&2 || true # no usage counters written by the builds
go build -o "$out/bin/" ./cmd/drmserver ./cmd/tracecheck >&2
go -C drmperf build -o "$out/bin/drmperf" . >&2
exec "$out/bin/drmperf" -bin "$out/bin" -work "$out/work" -traces "$out/traces" "$@"
