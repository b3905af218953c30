#!/usr/bin/env bash
# Build the benchmark from this checkout's sources and run it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --selftest .
# Build output goes to stderr; stdout carries only the report, whose
# last line is the JSON result.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: not a full checkout (dune-project or lib/ missing)" >&2
  exit 2
fi
# keep every build artifact inside the checkout's _build
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/bench.exe >&2
exec ./_build/default/perfbench/bench.exe "$@"
