#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
#
#   bash _qbench/run.sh --workload clinic-bulk --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# and the traced run's spans stay under .bench_build at the checkout
# root. Build output goes to stderr; the benchmark prints its result as
# the last line of stdout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false

(cd "$root/_qbench" && go build -o "$out/qbench" .) >&2
exec "$out/qbench" -root "$root" "$@"
