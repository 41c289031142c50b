"""foal benchmark: one seeded workload, timed, checked, reported as JSON.

    python3 perfbench/run.py --workload adapt --seed 0 --seconds 20 --trace 0

Run from the root of a foal checkout; the package is imported from its
`src/`. Workloads (see workloads.py and layers.json):

  adapt     online adaptation of one video at a time at the defaults
  transfer  `foal eval --adapt none` on 192x192 phantoms through the CLI
  train     baseline training then meta-training from one seeded start

Set-up (synthesis, files, checkpoint, golden warm-up) runs five times and
`setup_s` is its median. With `--trace 0` the timed loop runs untraced for
`--seconds` and the end-to-end metrics of BENCHMARK.json are reported. With
`--trace 1` half the time runs untraced and half traced, and the per-layer
metrics are reported, each per unit of work, with the tracing overhead;
spans go to `.perfbench/trace-<workload>-<seed>.json`.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}. The exit code is 0 when every correctness check passed, 1 when
one failed, and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def thread_layout(workload: str, nproc: int) -> tuple[int, int]:
    """(worker threads, BLAS threads), with workers x BLAS <= nproc.

    transfer runs the eval thread pool at nproc with single-threaded BLAS;
    adapt and train have one caller, so BLAS gets the cores.
    """
    return (nproc, 1) if workload == "transfer" else (1, nproc)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("adapt", "transfer", "train"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def timed_loop(w, seconds: float) -> tuple[float, int]:
    """Run units until `seconds` have passed and `w.min_units` are done."""
    t0 = time.perf_counter()
    units = 0
    while True:
        units += w.run_unit()
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds and units >= w.min_units:
            return elapsed, units


def setup(cls, work: Path, seed: int, workers: int):
    """Set up SETUP_REPEATS times; keep the last, return it with the median."""
    times, problems, kept = [], [], None
    for r in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        w = cls(work / f"setup{r}", seed, workers)
        w.setup()
        times.append(time.perf_counter() - t0)
        problems += w.problems
        if kept is not None:
            shutil.rmtree(kept.root)
        kept = w
    kept.problems = problems
    return kept, statistics.median(times)


def end_to_end(w, elapsed: float, units: int, setup_s: float) -> tuple[dict, list[str]]:
    """The BENCHMARK.json end-to-end metrics, plus the workload's own named
    metrics as printable lines."""
    from workloads import tail

    p50 = statistics.median(w.latencies_ms) if w.latencies_ms else float("nan")
    tail_ms, tail_pct = tail(w.latencies_ms) if w.latencies_ms else (float("nan"), 0.0)
    q = w.quality()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": setup_s, "latency_ms_p50": p50, "latency_ms_tail": tail_ms,
               "units_per_s": units / elapsed, "peak_rss_mb": rss_mb}
    tail_note = f"p{tail_pct:.0f} of {len(w.latencies_ms)} samples"
    named = [(f"{w.latency_name}_p50", p50, "ms"),
             (f"{w.latency_name}_tail", tail_ms, f"ms ({tail_note})"),
             (w.units_name, units / elapsed, "1/s"), *w.rates()]
    named += [(k, v, {"dice_mean": "", "hd_mm_mean": "mm", "loss_mean": ""}[k])
              for k, v in q.items()]
    named += [("peak_rss_mb", rss_mb, "MB"),
              ("failed_frac", w.failed / max(w.attempted, 1), f"({w.failed} of {w.attempted})"),
              ("setup_s", setup_s, f"s (median of {SETUP_REPEATS})")]
    lines = [f"{k} = {v:.6g} {u}".rstrip() for k, v, u in named]
    return metrics, lines


def traced(w, seconds: float, path: Path, layout: str) -> tuple[dict, list[str]]:
    """Half the time untraced, half traced; per-layer metrics per unit."""
    import tracing

    el_u, units_u = timed_loop(w, seconds / 2)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        el_t, units_t = timed_loop(w, seconds / 2)
    finally:
        restore()
    metrics = tracing.layer_metrics(tracer.spans, units_t)
    metrics["trace.untraced_unit_ms"] = el_u * 1e3 / units_u
    metrics["trace.unit_ms"] = el_t * 1e3 / units_t
    metrics["trace.overhead_pct"] = 100.0 * (metrics["trace.unit_ms"]
                                             / metrics["trace.untraced_unit_ms"] - 1.0)
    tracing.dump(tracer.spans, path, layout)
    # with worker threads, self times add up over threads, so shares are of
    # the total self time rather than of wall time
    total = sum(metrics[f"{x}.self_ms"] for x in tracing.LAYERS)
    shares = ", ".join(f"{x} {100 * metrics[f'{x}.self_ms'] / total:.1f}%"
                       for x in tracing.LAYERS)
    lines = [f"spans written to {path}",
             f"self time share per layer: {shares}",
             f"tracing overhead = {metrics['trace.overhead_pct']:.2f}% per unit "
             f"({units_t} units traced, {units_u} untraced)"]
    return metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    workers, blas = thread_layout(args.workload, nproc)
    if "numpy" in sys.modules:
        print("error: numpy was imported before the BLAS thread count was set",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(blas)
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "foal" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a foal checkout; {src / 'foal'} or {spec_path} "
              f"is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = json.loads(spec_path.read_text())

    import numpy as np
    from workloads import WORKLOADS

    blas_info = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    layout = (f"workload={args.workload} seed={args.seed} nproc={nproc} "
              f"workers={workers} blas_threads={blas} numpy={np.__version__} "
              f"blas={blas_info.get('name', '?')} {blas_info.get('version', '?')}")
    print(f"layout: {layout}")

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    try:
        w, setup_s = setup(WORKLOADS[args.workload], work, args.seed, workers)
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
            metrics, lines = traced(w, args.seconds, trace_path, layout)
            wanted = spec["per_layer"]
        else:
            elapsed, units = timed_loop(w, args.seconds)
            metrics, lines = end_to_end(w, elapsed, units, setup_s)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        print(f"error: measured metrics {sorted(metrics)} differ from "
              f"BENCHMARK.json {sorted(names)}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    problems = list(dict.fromkeys(w.problems))  # each set-up repeats the golden check
    problems += [f"{k} is not finite" for k, v in metrics.items() if not np.isfinite(v)]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    correct = not problems
    print(f"correctness checks: {'passed' if correct else f'{len(problems)} failed'}")
    values = {k: float(v) if np.isfinite(v) else None for k, v in metrics.items()}
    result = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": w.attempted,
                      "failed": w.failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
