#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# or every workload in turn, failing if any fails:
#   bash perfbench/run.sh --all --seed N --seconds S --trace 0|1
# Run it from the repository root. The binary, the Go build cache and
# the benchmark's scratch files stay under .bench_build there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

if [ "${1:-}" = "--all" ]; then
	shift
	status=0
	for w in analyze monitor approx; do
		"$out/perfbench" --workload "$w" "$@" || status=1
	done
	exit "$status"
fi
exec "$out/perfbench" "$@"
