#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# flags.  Run it from the repository root, for example:
#
#   bash bench/run.sh --workload decide-hot --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the verdict logs of a run all stay
# under .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd bench && go build -o "$out/keyedeq-bench-e2e" .)
exec "$out/keyedeq-bench-e2e" -workdir "$out" "$@"
