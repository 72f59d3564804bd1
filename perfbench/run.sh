#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it, passing
# every argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload wire-churn --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and the run's scratch files all live under
# .bench_build in the current directory; nothing is read or written
# outside it, and nothing is fetched.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
