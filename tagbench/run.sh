#!/usr/bin/env bash
# Builds the tagbench program from this checkout's sources and runs it with
# the given arguments. Run it from the repository root:
#
#   bash tagbench/run.sh --workload fleet-bringup --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and any Go state stay under .bench_build/
# in the checkout. A checkout without the repository's Go sources fails
# the build and exits non-zero without printing a result.
set -euo pipefail

if [ ! -f tagbench/go.mod ]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd tagbench && go build -o "$out/tagbench" .)
exec "$out/tagbench" "$@"
