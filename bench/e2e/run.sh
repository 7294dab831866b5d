#!/usr/bin/env bash
# Builds the end-to-end benchmark in Release and runs every workload as three
# measuring processes, printing every metric with its unit and writing the
# results (with a machine/build header) to .bench_build/BENCH_e2e.json.
#
#   bench/e2e/run.sh [--seed N] [--seconds S] [--trace] [--repeat-check] [--smoke]
#
# --trace        also runs one traced process per workload: per-layer metrics,
#                and a Chrome trace per workload under .bench_build/e2e-traces/.
# --repeat-check runs the whole set twice and prints, per (metric, workload),
#                whether the two sets agree within the bounds in BENCHMARK.json.
# --smoke        tiny inputs and two queries per process: a check, not a number;
#                writes no results file.
set -euo pipefail
exec python3 "$(dirname "$0")/run.py" --all "$@"
