#!/usr/bin/env bash
# Builds the benchmark from source, then runs it; every argument is
# passed through.  Run from the root of an rfloor checkout:
#   bash perfbench/run.sh --workload milp-ladder --seed 1 --seconds 25 --trace 0
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of an rfloor checkout" >&2
  exit 2
fi
# keep every build output inside the checkout
export DUNE_CACHE=disabled
dune build --root . perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
