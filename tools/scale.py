"""Time and peak memory of online adaptation at one frame size.

    python3 tools/scale.py SIZE

Runs `online_adapt` at the default settings on one phantom scaled from the
32x32 defaults to SIZE x SIZE: the heart's geometry grows with the frame and
the pixel spacing shrinks to match. The weights are `init_params(seed=0)`
with the head weights scaled by `HEAD_DAMP` from `perfbench/workloads.py`, as
in the benchmark's checkpoint, so the flows stay small. After one warm-up run
it times 3 runs and prints the BLAS thread variables, the median ms per
video, the median minor page faults and CPU ms (user + system, all threads)
per video from `getrusage` around each run, and the process's peak RSS.
It imports foal from the `src/` directory of its own checkout.
"""

from __future__ import annotations

import importlib.util
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from foal import adapt as A  # noqa: E402
from foal import data as D  # noqa: E402
from foal import network as N  # noqa: E402

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUNS = 3


def _head_damp() -> float:
    """HEAD_DAMP of perfbench/workloads.py, loaded from its file as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads.HEAD_DAMP


def main(argv: list[str]) -> None:
    if len(argv) != 1 or not argv[0].isdigit():
        sys.exit("usage: python3 tools/scale.py SIZE")
    size = int(argv[0])
    f = size / 32
    p = D.PhantomParams()
    phantom = D.PhantomParams(height=size, width=size, lv_radius=p.lv_radius * f,
                              myo_thickness=p.myo_thickness * f, rv_radius=p.rv_radius * f,
                              rv_offset=p.rv_offset * f, pixel_spacing_mm=(1 / f, 1 / f))
    video = D.preprocess(D.generate_phantom(phantom)[0])
    cfg = N.NetConfig(input_size=(size, size))
    base = N.init_params(cfg, seed=0)
    base["head.weight"].data *= _head_damp()
    ms, faults, cpu_ms = [], [], []
    for run in range(1 + RUNS):
        r0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
        A.online_adapt(cfg, base, video, A.OnlineConfig())
        t1, r1 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
        if run:
            ms.append((t1 - t0) * 1e3)
            faults.append(r1.ru_minflt - r0.ru_minflt)
            cpu_ms.append((r1.ru_utime + r1.ru_stime - r0.ru_utime - r0.ru_stime) * 1e3)

    for var in BLAS_VARS:
        print(f"{var}={os.environ.get(var, '(unset)')}")
    print(f"size {size}x{size}: online_adapt median {statistics.median(ms):.1f} ms per video "
          f"over {RUNS} runs ({', '.join(f'{m:.1f}' for m in ms)})")
    print(f"minor page faults median {statistics.median(faults):.0f} per video, "
          f"CPU median {statistics.median(cpu_ms):.1f} ms per video")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"peak RSS {peak_mb:.1f} MB")


if __name__ == "__main__":
    main(sys.argv[1:])
