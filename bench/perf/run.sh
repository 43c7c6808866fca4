#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments.
# Run from the repository root:
#   bash bench/perf/run.sh --workload torture_dcas --seed 1 --seconds 20 --trace 0
# Build output goes to stderr, so the last line of stdout is the
# benchmark's JSON summary.  The dune cache is off so that the build
# reads and writes only inside the checkout.
set -eu
DUNE_CACHE=disabled dune build --root . --display quiet ./bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"
