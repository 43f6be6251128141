#!/usr/bin/env bash
# Builds sx4d and the load generator from this tree, then runs one
# benchmark invocation; every argument passes through to loadbench:
#
#   bash loadbench/run.sh --workload run-hot --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and span files all stay under
# .bench_build at the root of the tree.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$out/bin" "$out/tmp" "$out/config/go/telemetry"
# With telemetry on (the default, "local"), the go command starts a
# detached sidecar process that outlives the build; turn it off in the
# private config directory so every process this script starts ends
# with it.
printf 'off\n' >"$out/config/go/telemetry/mode"
go build -o "$out/bin/sx4d" ./cmd/sx4d
(cd loadbench && go build -o "$out/bin/loadbench" .)
exec "$out/bin/loadbench" "$@"
