#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload diagnose --seed 1 --seconds 24 --trace 0
#
# Everything the build and the run write (Go build cache, binary,
# journals, traces, result files) stays under .bench_build/ in the
# checkout. Outside a full checkout the build fails and nothing runs.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
if commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null)"; then
	:
else
	# Not a git checkout: identify the source tree by content.
	commit="tree-$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-12)"
fi
export PERFBENCH_COMMIT="$commit"
exec "$out/perfbench" -work "$out" "$@"
