"""The benchmark's golden results must still match its stored reference."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads


W = _workloads()


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_golden_run_matches_reference(name, tmp_path):
    # every benchmark set-up runs this check and reports a mismatch as a
    # failed correctness check; here an API change shows up before a run
    gold = W.WORKLOADS[name](tmp_path, W.GOLDEN_SEED, workers=1, golden=True)
    gold.prepare()
    gold.run_unit()
    assert gold.problems == []
    want = json.loads(W.REFERENCE.read_text())[name]
    assert W.compare(gold.first[0], want) == []
