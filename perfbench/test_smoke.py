"""Tiny-size smoke test of the benchmark.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at a tiny size through the untraced and the traced
runner and checks that each emits exactly the metrics BENCHMARK.json names,
that the outputs pass their checks, and that tracing changes no artifact.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "train": lambda: workloads.Train(episodes=(3, 3, 3)),
    "eval": lambda: workloads.Eval(shifts=2, weeks=1),
    "city": workloads.City,
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def names(kind):
    return {m["name"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_reports_end_to_end_metrics(name, tmp_path):
    args = argparse.Namespace(seed=5, seconds=0.001, trace=0)
    attempted, failed, correct, metrics, report = run.timed_run(TINY[name](), args, tmp_path)
    assert correct and failed == 0 and attempted >= 1
    assert set(metrics) == names("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())
    assert report["samples"]["units"] == 1
    assert report["digests_unit0"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_matches_untraced_run(name, tmp_path):
    args = argparse.Namespace(seed=5, seconds=0.001, trace=1)
    attempted, failed, correct, metrics, report = run.traced_run(TINY[name](), args, tmp_path)
    assert report["digests_match"] and not report["spans_missing"]
    assert correct and failed == 0
    assert set(metrics) == names("per_layer")
    if name != "train":
        assert metrics["rlcore.learn.calls"][0] == 0
        assert metrics["rlcore.ReplayBuffer.sample.calls"][0] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
