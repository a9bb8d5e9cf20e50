#!/usr/bin/env bash
# Builds the tuning-service benchmark from source and runs it. Run it from
# the repository root; every argument is passed on to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 40 --trace 0
#
# The build cache, the binary and the benchmark's working files all live in
# .bench_build/ under the current directory.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# The build reads the repository's internal packages through the module's
# replace directive; without them it fails and no result is printed.
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out/run" "$@"
