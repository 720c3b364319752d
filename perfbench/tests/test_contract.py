import json
import os
import shutil
import subprocess
import sys

from conftest import BENCH, ROOT
from harness import END_TO_END, PER_LAYER, SELF_TIME
from workloads import WORKLOADS


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_harness():
    spec = _spec()
    for w in spec["workloads"]:
        assert WORKLOADS[w["name"]].why == w["why"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    for m in spec["end_to_end"]:
        assert END_TO_END[m["name"]] == (m["unit"], m["better"])
        assert 0 < m["bound"] <= 0.25
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
    assert set(SELF_TIME.values()) <= {name for name, _, _ in PER_LAYER}


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "babble16k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
