#!/usr/bin/env bash
# Builds the benchmark from the enclosing checkout and runs it with the
# given arguments (see README.md). Every build and run artifact stays
# under .bench_build/ in the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
if [ ! -f "$root/go.mod" ]; then
	echo "benchmark: no memsim module at $root (go.mod missing)" >&2
	exit 2
fi
(cd "$root/benchmark" && go build -o "$out/memsimbench" .)
cd "$root"
exec "$out/memsimbench" "$@"
