#!/usr/bin/env bash
# Build atsim and the benchmark from source, then run the benchmark.
# Run from the repository root:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr, so the last line of stdout is the
# result.  The dune cache is off so the build writes only under _build.
set -euo pipefail
DUNE_CACHE=disabled dune build --root . bin/atsim.exe benchmark/main.exe >&2
exec ./_build/default/benchmark/main.exe "$@"
