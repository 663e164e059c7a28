#!/usr/bin/env bash
# Builds the DTM benchmark from the sources of the checkout it is run from and
# runs it. Run it from the repository root:
#
#   bash dtmperf/run.sh --workload des-fine --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the benchmark's state (span files,
# pinned DES counts) live under $CARGO_TARGET_DIR (default .bench_build), so a
# run reads and writes only inside the checkout. The last line of standard
# output is the JSON result; build messages go to standard error.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
state=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$state"
state=$(cd "$state" && pwd)
mkdir -p "$state/tmp" "$state/config"

export GOCACHE="$state/gocache" GOPATH="$state/gopath" GOTMPDIR="$state/tmp"
export XDG_CONFIG_HOME="$state/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -C "$here" -o "$state/dtmperf" . >&2
exec "$state/dtmperf" -state "$state" "$@"
