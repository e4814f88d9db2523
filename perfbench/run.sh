#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload h2-jobs --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays inside the checkout:
# the Go build cache, the go command's config (telemetry counters) and
# the binary under .bench_build/, the run's data directories and result
# records under .bench_out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/.bench_build/perfbench"
mkdir -p "${build}/cache" "${build}/tmp" "${build}/config"
export GOCACHE="${build}/cache" GOMODCACHE="${build}/mod" GOPATH="${build}/gopath" \
	TMPDIR="${build}/tmp" XDG_CONFIG_HOME="${build}/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off GOENV=off
(cd "${root}/perfbench" && go build -o "${build}/perfbench" .)
exec "${build}/perfbench" --root "${root}" "$@"
