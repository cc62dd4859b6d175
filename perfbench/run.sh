#!/usr/bin/env bash
# Builds the benchmark and serenityd from this checkout, then runs one
# benchmark run. Run it from the repository root:
#
#   bash perfbench/run.sh --workload zoo-cold --seed 1 --seconds 10 --trace 0
#
# Everything it writes (binaries, Go build cache, server stores, spans) goes
# under $CARGO_TARGET_DIR, or .bench_build when that is unset.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out = /* ]] || out="$root/$out"
mkdir -p "$out/tmp" "$out/config"

# Keep the Go tool's caches, temporary files and telemetry inside $out.
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOENV=off

(
	cd "$root/perfbench"
	go build -o "$out/perfbench" .
	go build -o "$out/serenityd" github.com/serenity-ml/serenity/cmd/serenityd
) >&2

exec "$out/perfbench" --workdir "$out" --serenityd "$out/serenityd" "$@"
