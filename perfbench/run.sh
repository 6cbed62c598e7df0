#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it. Run from the repo
# root:
#
#   bash perfbench/run.sh --workload host-c200 --seed 1 --seconds 20 --trace 0
#
# Every build artefact (binary and Go build cache) stays under
# $CARGO_TARGET_DIR (default .bench_build) in the current directory. A tree
# without the simulator's sources fails the build, and the script exits
# non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache
export GOPATH=$out/gopath
export GOENV=off
export GOWORK=off
export GOTOOLCHAIN=local
export GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
