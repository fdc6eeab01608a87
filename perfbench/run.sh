#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
# Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload link-sweep --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files,
# spans and CPU profiles) stays under .bench_build in the current
# directory, or under $CARGO_TARGET_DIR when that is set.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out/perfbench-out" "$@"
