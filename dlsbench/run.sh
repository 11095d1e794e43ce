#!/usr/bin/env bash
# Builds dlsd and the benchmark from the checkout it runs in, then runs
# the benchmark with the given arguments. Run it from the repository root:
#
#   bash dlsbench/run.sh --workload chain-solo --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes (binaries, the Go build cache, span files)
# goes to .bench_build/ under the root.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/dlsd || ! -f dlsbench/go.mod ]]; then
	echo "dlsbench: run from the repository root: go.mod, cmd/dlsd and dlsbench/ are needed" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
# The go command keeps its env file and telemetry counters under the user
# config directory; keep those inside the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$out/dlsd" ./cmd/dlsd
(cd dlsbench && go build -o "$out/dlsbench" .)
commit=$(git rev-parse HEAD 2>/dev/null || echo none)
exec "$out/dlsbench" -dlsd "$out/dlsd" -out "$out" -commit "$commit" "$@"
