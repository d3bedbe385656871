#!/usr/bin/env bash
# Runs every workload once per seed for the benchmark's run length and
# keeps each run's output, for `perfbench compare`. Run from the root of
# the checkout:
#
#	bash perfbench/steady.sh runs/a 10            # seeds 1..10
#	bash perfbench/steady.sh runs/b 10 11         # seeds 11..20
#	bash perfbench/run.sh compare runs/a/*.out -- runs/b/*.out
#
# TRACE=1 collects traced runs instead; RUN_SECONDS sets the length of
# the timed phase (default 25, the run_seconds of BENCHMARK.json).
set -euo pipefail

dir=$1
runs=${2:-10}
first=${3:-1}
mkdir -p "$dir"
for ((s = first; s < first + runs; s++)); do
	for w in serve_point analytics mixed_dml; do
		bash "$(dirname "$0")/run.sh" --workload "$w" --seed "$s" --seconds "${RUN_SECONDS:-25}" --trace "${TRACE:-0}" \
			>"$dir/$w-$s.out" 2>"$dir/$w-$s.err"
	done
done
