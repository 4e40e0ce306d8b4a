#!/bin/sh
# Build the benchmark and the daemon from source, then run one workload.
# Run from the repository root:
#   sh wtbench/run.sh --workload tables --seed 1 --seconds 20 --trace 0
set -e
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d models ]; then
  echo "wtbench: run from the root of a full checkout (sources not found)" >&2
  exit 2
fi
# build inside the checkout only: no shared dune cache
DUNE_CACHE=disabled dune build --root . ./wtbench/main.exe ./bin/arcade_serve.exe >&2
exec ./_build/default/wtbench/main.exe "$@"
