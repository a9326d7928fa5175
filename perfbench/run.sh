#!/usr/bin/env bash
# Builds biaslab's benchmark from the source tree it sits in and runs it.
#
#   bash perfbench/run.sh --workload env-sweep --seed 1 --seconds 36 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build, relative to the repository root).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
out="$build/perfbench"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/gotmp" "$out/config" "$out/work"

if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no biaslab source tree at $root (go.mod missing)" >&2
	exit 2
fi

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/gotmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
export GOTELEMETRY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -work "$out/work" "$@"
