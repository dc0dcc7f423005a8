#!/usr/bin/env bash
# Build the benchmark from source and run it; arguments pass through:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of the repository.  Build output goes to stderr so
# the benchmark's last stdout line stays its JSON result.
set -euo pipefail
# keep every build output inside the checkout
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
