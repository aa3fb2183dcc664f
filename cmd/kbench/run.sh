#!/usr/bin/env bash
# Builds kbench from source and runs it with the given arguments.
#
#   bash cmd/kbench/run.sh [kbench flags]
#
# Everything the build writes (the binary, the Go build cache, temp
# files) goes to .bench_build/ at the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd "$root/cmd/kbench" && go build -o "$out/kbench" .)
exec "$out/kbench" "$@"
