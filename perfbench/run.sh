#!/usr/bin/env bash
# Build the benchmark driver from source in this checkout, then run it
# with the arguments given:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
# Keep every build product inside the checkout (no shared dune cache).
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
