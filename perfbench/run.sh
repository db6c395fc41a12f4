#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail
cd "$(dirname "$0")/.."
# Keep every build artefact inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
