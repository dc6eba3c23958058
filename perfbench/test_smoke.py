"""Smoke test of the benchmark: every workload at tiny scale, with its
output checks, plus the result format and the no-program failure.

    python3 -m pytest perfbench/test_smoke.py -q

Each case starts its own Ray session through ``perfbench/run.py``; the
whole file takes about a minute on one CPU.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_metrics(res: dict, specs: list):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_traced_smoke(workload):
    """Untraced reps, one traced rep and the layer measurements, with
    every output check passing."""
    _check_metrics(_result(_run(workload, 1)), BENCH["per_layer"])


def test_end_to_end_metrics():
    res = _result(_run("flagship", 0))
    _check_metrics(res, BENCH["end_to_end"])
    assert res["metrics"]["docs_per_cpu_s"]["value"] > 0
    assert res["metrics"]["ops_ok_frac"]["value"] == 1.0


def test_fails_without_program(tmp_path):
    """Given only BENCHMARK.json and perfbench/, the run exits non-zero
    and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("flagship", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
