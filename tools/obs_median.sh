#!/bin/sh
# Run bench_obs_overhead five times, each in a process of its own, and
# write <dir>/BENCH_obs.json: the first run's file with each of the
# three gated overhead percents replaced by its median over the five.
# One tree's ledger percent spreads between runs, not between the
# rounds of one run, so `regress` judges the budgets on this median.
# The single runs stay in <dir>/obs-runs/.
# Usage: tools/obs_median.sh <dir>     (needs jq)
set -eu
mkdir -p "$1/obs-runs"
dir=$(cd "$1" && pwd)
for run in 1 2 3 4 5; do
    BENCH_OBS_JSON="$dir/obs-runs/$run.json" \
        cargo bench -q -p scihadoop-bench --bench bench_obs_overhead
done
jq -s '
    def median(f): map(f) | sort | .[length / 2 | floor];
    .[0] + {
        map_sort_spill_overhead_percent: median(.map_sort_spill_overhead_percent),
        merge_reduce_overhead_percent: median(.merge_reduce_overhead_percent),
        map_sort_spill_ledger_overhead_percent:
            median(.map_sort_spill_ledger_overhead_percent)
    }' "$dir"/obs-runs/[1-5].json >"$dir/BENCH_obs.json"
