#!/usr/bin/env bash
# Builds the benchmark and cmd/sg2042d from the checkout it is run in,
# then runs the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload campaign-cold --seed 1 --seconds 16 --trace 0
#
# Everything the build and the run write (binaries, Go build cache, temp
# files, inputs, spans, results) stays under .bench_build/ in the
# checkout. Without the repository's sources beside perfbench/ the script
# exits non-zero before building or printing any result.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/sg2042d" ]; then
	echo "perfbench: run from the repository root (cmd/sg2042d not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry files
# inside the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off

go -C "$root/perfbench" build -o "$out/bin/perfbench" .
go -C "$root/perfbench" build -o "$out/bin/sg2042d" repro/cmd/sg2042d

exec "$out/bin/perfbench" -daemon "$out/bin/sg2042d" -out "$out" "$@"
