#!/usr/bin/env bash
# Runs 2 s of each gated perfbench workload on seed 401 and fails unless
# every run is `correct`: it meets its quality floors and fails no capture.
# Run from the root of the checkout:
#
#     bash .github/perfbench-floors.sh
#
# Each run's output goes to perfbench-<workload>.out in $RUNNER_TEMP (else
# a new temporary directory), and is printed when the run is not correct.
set -euo pipefail

out_dir="${RUNNER_TEMP:-$(mktemp -d)}"
for w in babble16k quiet48k nowalk60s synth48k; do
  out="$out_dir/perfbench-$w.out"
  python3 perfbench/run.py --workload "$w" --seed 401 --seconds 2 --trace 0 > "$out"
  tail -n 1 "$out" | python3 -c "import json, sys; sys.exit(0 if json.load(sys.stdin)['correct'] else 1)" \
    || { echo "perfbench $w: not correct"; cat "$out"; exit 1; }
done
