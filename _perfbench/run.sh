#!/usr/bin/env bash
# Builds the perfbench program from source and runs it with the given
# arguments. Run from the root of the repository:
#
#	bash _perfbench/run.sh --workload frame-nominal --seed 1 --seconds 30 --trace 0
#
# Every build output (binary, Go build cache, temporaries) goes under
# .bench_build/ in the current directory; nothing is fetched.
set -eu
here="$(cd "$(dirname "$0")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
# The go command keeps its env file and telemetry under the user config
# directory; point that into the build directory too.
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go build -C "$here" -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" "$@"
