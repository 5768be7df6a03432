#!/usr/bin/env bash
# Builds perfbench from the sources in this checkout and runs it with the
# given arguments.  Run from the repository root:
#
#   bash perfbench/run.sh --workload cpu-wide-paced --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build), inside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export GOTMPDIR=$build/tmp TMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" -outdir "$build/perfbench" "$@"
