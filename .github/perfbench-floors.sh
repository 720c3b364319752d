#!/usr/bin/env bash
# Runs 2 s of each gated perfbench workload on seed 401, plus traced 2 s
# babble16k and quiet48k runs, and fails unless every run is `correct`: it
# meets its quality floors and fails no capture. The traced runs wrap the
# package callees that perfbench/spans.py lists in WRAPPED, by name, and read
# their results, so a renamed callee or a changed result shape fails them.
# babble16k traces the pinned-template NMF branch at 16 kHz, quiet48k the
# blind branch and the 48 kHz front end.
# Run from the root of the checkout:
#
#     bash .github/perfbench-floors.sh
#
# Each run's output goes to perfbench-<workload>-trace<0|1>.out in
# $RUNNER_TEMP (else a new temporary directory), and is printed when the run
# is not correct.
set -euo pipefail

out_dir="${RUNNER_TEMP:-$(mktemp -d)}"
check() {  # workload, trace flag
  out="$out_dir/perfbench-$1-trace$2.out"
  python3 perfbench/run.py --workload "$1" --seed 401 --seconds 2 --trace "$2" > "$out"
  tail -n 1 "$out" | python3 -c "import json, sys; sys.exit(0 if json.load(sys.stdin)['correct'] else 1)" \
    || { echo "perfbench $1 --trace $2: not correct"; cat "$out"; exit 1; }
}
for w in babble16k quiet48k nowalk60s synth48k; do
  check "$w" 0
done
check babble16k 1
check quiet48k 1
