#!/usr/bin/env bash
# Builds ccserved and the benchmark harness from source into .bench_build,
# then runs the harness. Run from the repository root:
#
#   bash perfbench/run.sh --workload compile --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact stays under .bench_build in the working
# directory: the Go build cache, the binaries, the servers' data
# directories and the span files of traced runs. Build output goes to
# standard error; the last line of standard output is the result JSON.
set -euo pipefail

# Without the program's sources there is nothing to measure: fail before
# any go command runs, so nothing is built or started.
for f in go.mod cmd/ccserved testdata/golden; do
	if [ ! -e "$f" ]; then
		echo "perfbench: $f not found; run from the repository root" >&2
		exit 1
	fi
done

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
# Telemetry off: otherwise the go command starts a detached upload process
# that outlives the build.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' >"$XDG_CONFIG_HOME/go/telemetry/mode"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export GOWORK=off

go build -o "$out/ccserved" ./cmd/ccserved >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2

exec "$out/perfbench" -bin "$out/ccserved" -out "$out" "$@"
