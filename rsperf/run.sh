#!/usr/bin/env bash
# Builds rsd (from the enclosing checkout) and the rsperf load program, then
# runs one benchmark pass:
#
#   bash rsperf/run.sh --workload exact-cold --seed 1 --seconds 12 --trace 0
#
# Run it from the root of a regsat checkout. Every build artifact, the Go
# build cache, and each run's scratch directory live under .bench_build (or
# under $CARGO_TARGET_DIR when that is set), so nothing outside the checkout
# is read or written besides the Go toolchain itself.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/rsperf/go.mod" ]]; then
	echo "rsperf: run from the root of a regsat checkout (go.mod and rsperf/go.mod not found)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -o "$out/bin/rsd" ./cmd/rsd
(cd rsperf && go build -o "$out/bin/rsperf" .)
exec "$out/bin/rsperf" -rsd "$out/bin/rsd" -work "$out/work" "$@"
