#!/usr/bin/env bash
# Build the benchmark from source, then run it:
#
#   bash perfbench/run.sh --workload spec-churn --seed 1 --seconds 20 --trace 0
#
# Workloads: spec-churn, spec-stream, serve-knee, fleet-rolling, or all.
# Other modes: --self-check (digests and word counts repeat, traced runs
# match untraced ones and stay quiet on stderr) and --gen-expected A-B
# (regenerate perfbench/expected.tsv for seeds A..B).
#
# dune's output goes to stderr, so the benchmark's JSON result stays the
# last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: dune-project or lib/ missing; run from a checkout of the simulator" >&2
  exit 1
fi
if command -v dune >/dev/null 2>&1; then
  dune build --root . ./perfbench/perfbench.exe 1>&2
else
  opam exec -- dune build --root . ./perfbench/perfbench.exe 1>&2
fi
exec ./_build/default/perfbench/perfbench.exe "$@"
