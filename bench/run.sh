#!/usr/bin/env bash
# Builds the benchmark from source and runs it.  Called from the root of
# a checkout as BENCHMARK.json's command:
#
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything the build leaves behind (Go's build cache included) lands in
# .bench_build/ inside the checkout; everything a run leaves behind lands
# in bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp"
(cd "$here" && go build -o "$build/sialbench" .)
exec "$build/sialbench" "$@"
