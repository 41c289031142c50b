"""The benchmark's three workloads: adapt, transfer and train.

Each is a closed loop run by one caller in one process: the next unit of
work starts when the previous one has returned. Inputs are phantoms that
`foal synth` renders from the benchmark seed into files; the package then
sees only those files, a config and a checkpoint. Every unit is checked as
it completes (finite losses, metrics and weights, the last standing in for
the flows: the network has no division, so finite weights and frames give
finite flows; the adapted-from weights untouched; repeats of an input give
identical results), and set-up runs one unit on fixed golden inputs whose
results must match `reference.json`.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

from foal import adapt as A
from foal import cli
from foal import config as C
from foal import data as D
from foal import metrics as M
from foal import network as N

clock = time.perf_counter

# Seed of the golden inputs that set-up runs and compares to reference.json.
GOLDEN_SEED = 1000
REFERENCE = Path(__file__).resolve().parent / "reference.json"
# Golden results must match the stored ones to this relative tolerance:
# float64 with room for a changed summation order, far below any change in
# a Dice pixel count or a loss digit that matters.
RTOL = 1e-6

# A fresh network fed 0..255 frames predicts flows of many pixels. Scaling
# the head weights gives the small flows a trained network starts from, so
# Dice and Hausdorff stay meaningful without training in set-up.
HEAD_DAMP = 1e-3


def _write_json(path: Path, doc: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1))
    return path


def _quiet_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def synth(cfg_path: Path, out: Path) -> D.DatasetSplit:
    rc = _quiet_cli(["synth", "--config", str(cfg_path), "--out", str(out)])
    if rc != 0:
        raise RuntimeError(f"foal synth exited with {rc}")
    return D.load_manifest(out / "manifest.json")


def write_checkpoint(cfg: C.RunConfig, path: Path) -> None:
    theta = N.init_params(cfg.net, seed=cfg.seed)
    theta["head.weight"].data *= HEAD_DAMP
    D.write_checkpoint(path, theta)


def _all_finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=np.float64))))


def _params_finite(theta) -> bool:
    return all(np.isfinite(t.data).all() for _, t in theta.items())


def _scores(rows) -> tuple[list[float], list[float], bool]:
    """(dice, Hausdorff, all finite) over (dice, hd) rows, one per label.

    Hausdorff is NaN by definition when a label's contour is empty in either
    mask, and Dice is then 0 (or 1 when both lack it); such rows leave the
    Hausdorff mean, as in `foal eval`. With Dice > 0 both contours exist, so
    a NaN there is a numerical failure.
    """
    dice = [d for d, _ in rows]
    hd = [h for _, h in rows if math.isfinite(h)]
    return dice, hd, all(_row_ok(d, h) for d, h in rows)


def _row_ok(dice: float, hd: float) -> bool:
    return math.isfinite(dice) and (dice in (0.0, 1.0) or math.isfinite(hd))


def _report_rows(report: M.MetricsReport) -> list[tuple[float, float]]:
    return [(report.dice[k], report.hausdorff_mm[k]) for k in sorted(report.dice)]


def compare(found: dict, want: dict) -> list[str]:
    """Mismatches between a golden fingerprint and its stored reference."""
    problems = []
    for key in sorted(set(found) | set(want)):
        a = np.asarray(found.get(key, []), dtype=np.float64)
        b = np.asarray(want.get(key, []), dtype=np.float64)
        if a.shape != b.shape or not np.allclose(a, b, rtol=RTOL, atol=1e-12,
                                                  equal_nan=True):
            problems.append(f"golden {key}: got {a.tolist()}, "
                            f"reference {b.tolist()}")
    return problems


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, as
    (value, percentile). Below 11 samples none exists; the maximum is
    returned with percentile 100."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 11) / (n - 1)


class Workload:
    """One unit of work per `run_unit` call; subclasses define the unit."""

    name = ""
    # units a timed phase must complete, so quality covers every input
    min_units = 1
    # units of work (videos or cycles) and attempted operations (videos or
    # steps) in one call of `unit`
    units_per_call = 1
    attempts_per_call = 1
    # printed names of the latency samples and of units_per_s
    latency_name = ""
    units_name = ""

    def __init__(self, root: Path, seed: int, workers: int, golden: bool = False):
        self.root = root
        self.seed = seed
        self.workers = workers
        self.golden = golden
        self.calls = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.latencies_ms: list[float] = []
        self.first: dict[int, dict] = {}

    def setup(self) -> None:
        """Write inputs, then warm up on the golden inputs and check them."""
        self.prepare()
        if self.golden:
            return
        gold = type(self)(self.root / "golden", GOLDEN_SEED, self.workers, golden=True)
        gold.prepare()
        gold.run_unit()
        self.problems += gold.problems
        want = json.loads(REFERENCE.read_text()).get(self.name)
        if want is None:
            self.problems.append(f"no reference for {self.name}; golden "
                                 f"values are {json.dumps(gold.first.get(0))}")
        elif 0 in gold.first:
            self.problems += compare(gold.first[0], want)

    def fail(self, what: str, units: int = 1) -> None:
        self.failed += units
        self.problems.append(what)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def record(self, key: int, found: dict) -> None:
        """Keep the first result per input; later repeats must equal it."""
        if key not in self.first:
            self.first[key] = found
        elif found != self.first[key]:
            self.problems.append(f"input {key} gave a different result on a "
                                 f"repeat: {found} != {self.first[key]}")

    def run_unit(self) -> int:
        """Do one call's work; returns how many units it was."""
        i = self.calls
        self.calls += 1
        self.attempted += self.attempts_per_call
        try:
            self.unit(i)
        except Exception:  # a failed unit is counted, and the loop goes on
            self.fail(f"unit {i} raised:\n{traceback.format_exc()}",
                      self.attempts_per_call)
        return self.units_per_call

    def rates(self) -> list[tuple[str, float, str]]:
        """Further printed (name, value, unit) rates of the workload."""
        return []

    def quality(self) -> dict[str, float]:
        dice = [v for r in self.first.values() for v in r["dice"]]
        hd = [v for r in self.first.values() for v in r["hd_mm"]]
        out = {"dice_mean": statistics.fmean(dice) if dice else math.nan,
               "hd_mm_mean": statistics.fmean(hd) if hd else math.nan}
        losses = [v for r in self.first.values() for v in r.get("loss", [])]
        if losses:
            out["loss_mean"] = statistics.fmean(losses)
        return out


class Adapt(Workload):
    """`foal eval --adapt foal`, one video at a time, at the defaults."""

    name = "adapt"
    latency_name = "adapt_ms"
    units_name = "videos_per_s"

    def prepare(self) -> None:
        inside, outside = (1, 0) if self.golden else (8, 8)
        cfg_path = _write_json(self.root / "config.json", {
            "seed": self.seed,
            "synth": {"count_baseline_train": 0, "count_meta_train": 0,
                      "count_test_inside": inside, "count_test_outside": outside}})
        split = synth(cfg_path, self.root / "data")
        self.cfg = C.from_json(cfg_path)
        self.entries = split.test_inside + split.test_outside
        self.min_units = len(self.entries)
        write_checkpoint(self.cfg, self.root / "base.fckp")
        self.base = D.read_checkpoint(self.root / "base.fckp")
        self.base_copy = self.base.to_arrays()

    def unit(self, i: int) -> None:
        cfg = self.cfg
        k = i % len(self.entries)
        entry = self.entries[k]
        video, masks = D.load_entry(entry)
        ocfg = dataclasses.replace(cfg.online, seed=cfg.online.seed + k)
        t0 = clock()
        theta, reports = A.online_adapt(cfg.net, self.base, video, ocfg, cfg.loss)
        t1 = clock()
        report = M.evaluate_video(cfg.net, theta, video, masks)
        self.latencies_ms.append((t1 - t0) * 1e3)
        dice, hd, finite = _scores(_report_rows(report))
        found = {"loss": [r.total for r in reports], "dice": dice, "hd_mm": hd}
        if not (finite and _all_finite(found["loss"]) and _params_finite(theta)):
            self.fail(f"{entry.video_id}: non-finite loss, weight or metric {found}")
        self.check(all(np.array_equal(self.base[n].data, a)
                       for n, a in self.base_copy.items()),
                   f"{entry.video_id}: online_adapt changed the base weights")
        self.record(k, found)


def _scaled_group(group: C.SynthGroup, factor: float) -> dict:
    doc = dataclasses.asdict(group)
    for key in ("lv_radius", "myo_thickness", "rv_radius", "rv_offset"):
        doc[key] = [v * factor for v in doc[key]]
    return doc


class Transfer(Workload):
    """`foal eval --adapt none` through the CLI on 192x192 phantoms."""

    name = "transfer"
    latency_name = "eval_call_ms"
    units_name = "videos_per_s"
    SIZE = 192
    # geometry scales with the frame and spacing shrinks to match, so the
    # heart keeps the physical size of the 32x32 defaults
    SCALE = SIZE / 32

    def prepare(self) -> None:
        inside, outside = (1, 1) if self.golden else (8, 8)
        sc = C.SynthConfig()
        cfg_path = _write_json(self.root / "config.json", {
            "seed": self.seed,
            "net": {"input_size": [self.SIZE, self.SIZE]},
            "synth": {"height": self.SIZE, "width": self.SIZE,
                      "pixel_spacing_mm": [1 / self.SCALE, 1 / self.SCALE],
                      "count_baseline_train": 0, "count_meta_train": 0,
                      "count_test_inside": inside, "count_test_outside": outside,
                      "inside": _scaled_group(sc.inside, self.SCALE),
                      "outside": _scaled_group(sc.outside, self.SCALE)}})
        split = synth(cfg_path, self.root / "data")
        self.cfg = C.from_json(cfg_path)
        self.ids = [e.video_id for e in split.test_inside + split.test_outside]
        self.units_per_call = self.attempts_per_call = len(self.ids)
        write_checkpoint(self.cfg, self.root / "base.fckp")
        self.csv_path = self.root / "eval" / "metrics.csv"
        self.argv = ["eval", "--config", str(cfg_path),
                     "--manifest", str(self.root / "data" / "manifest.json"),
                     "--checkpoint", str(self.root / "base.fckp"),
                     "--out", str(self.root / "eval"),
                     "--adapt", "none", "--threads", str(self.workers)]

    def unit(self, i: int) -> None:
        n = self.units_per_call
        t0 = clock()
        rc = _quiet_cli(self.argv)
        t1 = clock()
        if rc != 0:
            self.fail(f"foal eval exited with {rc}", n)
            return
        self.latencies_ms.append((t1 - t0) * 1e3)
        with open(self.csv_path, newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if r["video_id"] in self.ids]
        scored = [(r["video_id"], float(r["dice"]), float(r["hausdorff_mm"]))
                  for r in rows]
        dice, hd, _ = _scores([(d, h) for _, d, h in scored])
        bad = {v for v, d, h in scored if not _row_ok(d, h)}
        if bad or len(rows) != 3 * n:
            self.fail(f"metrics.csv: {len(rows)} rows for {n} videos, "
                      f"non-finite for {sorted(bad)}", max(len(bad), 1))
        self.record(0, {"dice": dice, "hd_mm": hd})


class Train(Workload):
    """`train_baseline` then `meta_train` at the defaults, from one seeded
    start per cycle, with the checkpoint written and read between them.
    Latency samples are single baseline training steps."""

    name = "train"
    latency_name = "train_step_ms"
    units_name = "cycles_per_s"
    TRAIN_STEPS = 5
    META_STEPS = 1

    def prepare(self) -> None:
        if self.golden:
            counts = (2, 2, 1)
            train = {"steps": 1}
            meta = {"meta_steps": 1, "videos_per_step": 1, "inner_steps": 1}
        else:
            counts = (10, 10, 8)
            train = {"steps": self.TRAIN_STEPS}
            meta = {"meta_steps": self.META_STEPS}
        cfg_path = _write_json(self.root / "config.json", {
            "seed": self.seed, "train": train, "meta": meta,
            "synth": {"count_baseline_train": counts[0],
                      "count_meta_train": counts[1],
                      "count_test_inside": counts[2],
                      "count_test_outside": counts[2]}})
        split = synth(cfg_path, self.root / "data")
        self.cfg = C.from_json(cfg_path)
        self.train_videos = [D.load_entry(e)[0] for e in split.baseline_train]
        self.meta_videos = [D.load_entry(e)[0] for e in split.meta_train]
        self.tests = [D.load_entry(e) for e in split.test_inside + split.test_outside]
        write_checkpoint(self.cfg, self.root / "base.fckp")
        self.theta0 = D.read_checkpoint(self.root / "base.fckp")
        self.attempts_per_call = self.cfg.train.steps + self.cfg.meta.meta_steps
        self.train_s = self.meta_s = self.cycles_s = 0.0
        self.cycles = 0

    def unit(self, i: int) -> None:
        cfg = self.cfg
        # step ends, from the progress callback: one latency sample per step
        marks = [clock()]
        t0 = marks[0]
        theta, history = A.train_baseline(
            cfg.net, self.theta0, self.train_videos, cfg.train.steps,
            cfg.train.batch_pairs, cfg.train.learning_rate, cfg.loss, seed=cfg.seed,
            progress=lambda step, rep: marks.append(clock()))
        t1 = clock()
        D.write_checkpoint(self.root / "baseline.fckp", theta)
        theta_b = D.read_checkpoint(self.root / "baseline.fckp")
        self.check(theta_b.allclose(theta, rtol=0, atol=0),
                   "checkpoint round trip changed the weights")
        t2 = clock()
        theta_m, records = A.meta_train(cfg.net, theta_b, self.meta_videos,
                                        cfg.meta, cfg.loss)
        t3 = clock()
        D.write_checkpoint(self.root / "meta.fckp", theta_m)
        reports = [M.evaluate_video(cfg.net, theta_m, v, m) for v, m in self.tests]
        t4 = clock()
        self.train_s += t1 - t0
        self.meta_s += t3 - t2
        self.cycles_s += t4 - t0
        self.cycles += 1
        self.latencies_ms += [(b - a) * 1e3 for a, b in zip(marks, marks[1:])]
        losses = [r.total for r in history] + [r.heldout.total for r in records]
        dice, hd, finite = _scores([row for r in reports for row in _report_rows(r)])
        bad_steps = sum(not math.isfinite(v) for v in losses)
        if bad_steps:
            self.fail(f"cycle {i}: {bad_steps} non-finite step losses", bad_steps)
        self.check(finite and _params_finite(theta_m),
                   f"cycle {i}: non-finite weights or metrics")
        self.record(0, {"loss": losses, "dice": dice, "hd_mm": hd})

    def rates(self) -> list[tuple[str, float, str]]:
        return [("train_steps_per_s", len(self.latencies_ms) / self.train_s, "1/s"),
                ("meta_steps_per_s", self.cfg.meta.meta_steps * self.cycles / self.meta_s, "1/s"),
                ("cycle_ms_mean", self.cycles_s * 1e3 / self.cycles, f"ms (over {self.cycles})")]


WORKLOADS = {w.name: w for w in (Adapt, Transfer, Train)}
