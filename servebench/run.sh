#!/usr/bin/env bash
# run.sh — build pvserve and servebench from this checkout, then run
# servebench. Run it from the repository root:
#
#   bash servebench/run.sh --workload check_stream --seed 1 --seconds 10 --trace 0
#
# Every build product, the Go build cache and all run state stay under
# .bench_build/ in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/pvserve ] || [ ! -f servebench/go.mod ]; then
  echo "servebench: run from the repository root (pvserve sources not found)" >&2
  exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOENV=off

go build -o "$out/bin/pvserve" ./cmd/pvserve
(cd servebench && go build -o "$out/bin/servebench" .)
exec "$out/bin/servebench" -pvserve "$out/bin/pvserve" -workdir "$out" "$@"
