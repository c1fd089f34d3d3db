#!/usr/bin/env bash
# Builds the benchmark and bebop-serve from the checkout this is started
# in (run it from the repository root), then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload sweep-fig8 --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, including the Go build cache, so the first run compiles the
# standard library as well.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
go build -o "$out/bebop-serve" ./cmd/bebop-serve >&2
exec "$out/perfbench" -serve-bin "$out/bebop-serve" -work "$out" "$@"
