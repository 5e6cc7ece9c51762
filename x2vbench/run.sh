#!/usr/bin/env bash
# Builds x2vec, x2vecd and the benchmark from the sources of the checkout it
# is run from, then runs the benchmark. Run it from the repository root:
#
#   bash x2vbench/run.sh --workload serve-graphs --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binaries, temporary files and traces.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/x2vec" ] || [ ! -d "$root/cmd/x2vecd" ]; then
	echo "run.sh: run from the root of an x2vec checkout (cmd/x2vec and cmd/x2vecd not found)" >&2
	exit 2
fi
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOENV=off GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
mkdir -p "$GOCACHE" "$GOTMPDIR" "$out/bin"
go build -buildvcs=false -o "$out/bin/" ./cmd/x2vec ./cmd/x2vecd >&2
(cd "$here" && go build -buildvcs=false -o "$out/bin/x2vbench" .) >&2
exec "$out/bin/x2vbench" -root "$root" -bin "$out/bin" "$@"
