"""Smoke runs of the scripts in tools/."""

import re
import subprocess
import sys
from pathlib import Path

SCALE = Path(__file__).resolve().parents[1] / "tools" / "scale.py"


def test_scale_prints_its_result_lines():
    run = subprocess.run([sys.executable, str(SCALE), "32"], capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert [line.split("=")[0] for line in lines[:3]] == [
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
    assert re.fullmatch(r"size 32x32: online_adapt median \d+\.\d ms per video "
                        r"over 3 runs \((\d+\.\d, ){2}\d+\.\d\)", lines[3])
    assert re.fullmatch(r"minor page faults median \d+ per video, "
                        r"CPU median \d+\.\d ms per video", lines[4])
    assert re.fullmatch(r"peak RSS \d+\.\d MB", lines[5])
    assert len(lines) == 6
