#!/usr/bin/env bash
# Builds the repository from source and runs one benchmark workload:
#   bash perfbench/run.sh --workload grid|fleet|scale|resume --seed N --seconds S --trace 0|1
# from the root of a checkout.  The last line of standard output is the
# result object; build output goes to standard error.
set -euo pipefail
cd "$(dirname "$0")/.."
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . ./perfbench/bench.exe ./bin/oraclesize.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
