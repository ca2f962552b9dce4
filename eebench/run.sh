#!/usr/bin/env bash
# Builds the EagleEye benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash eebench/run.sh --workload sim-ships --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary) stays under .bench_build/ in the current directory.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f eebench/go.mod ]; then
	echo "eebench: run from the repository root (go.mod and eebench/go.mod not found)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd eebench && go build -o "$out/eebench" .)
exec "$out/eebench" "$@"
