#!/usr/bin/env bash
# Builds the router benchmark from the source tree it sits in and runs
# one workload. Run it from the repository root:
#
#   bash routerbench/run.sh --workload hit64 --seed 1 --seconds 20 --trace 0
#
# The build cache, temporary files and the binary stay under
# .bench_build/ in the current directory.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off
# The result records what was measured: the git commit, or outside a
# git checkout a digest of the Go sources.
if ! ROUTERBENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null)"; then
	ROUTERBENCH_COMMIT="go-src-$(find . -name '*.go' -not -path './.bench_build/*' | LC_ALL=C sort | xargs cat | sha256sum | cut -c1-16)"
fi
export ROUTERBENCH_COMMIT
(cd "$here" && go build -o "$build/routerbench" .) >&2
exec "$build/routerbench" "$@"
