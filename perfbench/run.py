"""Seeded capture benchmark for the footfall package.

    python3 perfbench/run.py --workload babble16k --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy. Prints one line with every
end-to-end metric that applies to the workload (name, unit, direction),
then, as the last line, the result object: with --trace 0 the end-to-end
metrics of BENCHMARK.json, with --trace 1 the per-layer metrics of a traced
run. Spans of a traced run are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "footfall", "__init__.py")):
        sys.exit(f"perfbench: no footfall sources under {SRC}")
    sys.path.insert(0, SRC)
    import footfall
    if os.path.dirname(os.path.dirname(os.path.abspath(footfall.__file__))) != SRC:
        sys.exit(f"perfbench: footfall imported from {footfall.__file__}, not {SRC}")


def main(argv=None) -> int:
    # One caller, one BLAS thread: on these matrix sizes a second thread
    # made NMF no faster and left timings more exposed to other load.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    _import_package()
    from harness import Run, layer_metrics  # noqa: E402
    from workloads import WORKLOADS  # noqa: E402

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.prepare()
    run.warm_up()
    run.measure()
    rep = run.report()
    guards = run.guard_failures(rep)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "report": rep,
                      "attempted": run.attempted, "failures": dict(run.failures),
                      "guard_failures": guards}))
    if args.trace:
        values = layer_metrics(run)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": run.tracer.to_list()}, fh)
    else:
        metrics = {m["name"]: {"value": rep[m["name"]]["value"], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": run.failed == 0 and not guards, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
