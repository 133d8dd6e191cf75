#!/usr/bin/env bash
# Build the program and the benchmark from source, then run one workload:
#
#   bash bench/suite/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of the repository.  Build output goes to stderr, so
# the result stays the last line of standard output.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet bench/suite/dart_bench.exe bin/dart_cli.exe 1>&2
exec _build/default/bench/suite/dart_bench.exe --server _build/default/bin/dart_cli.exe "$@"
