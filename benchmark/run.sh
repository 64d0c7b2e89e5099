#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash benchmark/run.sh [-workload name]... [-seed n] [-seconds s] [-trace 0|1] [-out dir]
#   bash benchmark/run.sh compare a.json b.json
#
# The benchmark is its own Go module (benchmark/go.mod, `replace triplec =>
# ../`), so `go run ./benchmark` from the root does not reach it. Everything
# the build leaves behind — binary, Go build cache, temp files — stays in
# .bench_build/ inside the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
(
	cd "$here"
	GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOWORK=off \
		go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/triplec-benchmark" .
)
cd "$root"
exec "$build/triplec-benchmark" "$@"
