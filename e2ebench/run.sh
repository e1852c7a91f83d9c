#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's source and runs it.
#
#   bash e2ebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash e2ebench/run.sh --regen-refs
#
# Every build artefact, cache and scratch file stays under
# <checkout>/.bench_build. Outside a checkout (no go.mod beside this
# directory) there is nothing to build, and the script fails.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/core" ]]; then
  echo "e2ebench: no DIPE source tree at $root; nothing to benchmark" >&2
  exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
  GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
  GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd "$here" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" --root "$root" "$@"
