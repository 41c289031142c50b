"""Tiny end-to-end runs of every workload, in both modes, and the failure
mode outside a checkout."""

import json
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT
from workloads import tail

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, *args, timeout=300):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    out = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.1",
              "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "layout: workload=" in out.stdout


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run(tmp_path, "--workload", "adapt", "--seed", "0", "--seconds", "1",
              "--trace", "0", timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_tail_leaves_ten_samples_beyond():
    xs = [float(i) for i in range(30)]
    value, pct = tail(xs)
    assert sum(x > value for x in xs) == 10
    assert value == 19.0 and pct == pytest.approx(100 * 19 / 29)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
