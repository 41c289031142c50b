"""Command line front end.

Subcommands cover the full experiment cycle:

  synth       render a phantom dataset and its manifest
  train       self-supervised pretraining on the baseline_train split
  meta-train  adaptation-aware refinement on the meta_train split
  eval        per-video online adaptation plus segmentation-transfer metrics
  gradcheck   finite-difference audit of every differentiable op

Exit codes: 0 success, 1 usage, data or divergence errors, 2 failed checks.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

from foal import config as C
from foal import data as D
from foal import network as N
from foal.adapt import meta_train, online_adapt, train_baseline
from foal.config import ConfigError
from foal.gradcheck import run_suite
from foal.metrics import evaluate_video

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2

_EVAL_LABELS = (D.RV, D.MYO, D.LV)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; we reserve 2 for failed checks."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _load_config(args) -> C.RunConfig:
    cfg = C.from_json(args.config) if args.config else C.RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _validate_checkpoint(cfg: C.RunConfig, params) -> None:
    expected = N.init_params(cfg.net, seed=0)
    have = {n: params[n].shape for n in params.names()}
    want = {n: expected[n].shape for n in expected.names()}
    if have != want:
        raise ValueError(
            f"checkpoint does not match the configured architecture: "
            f"checkpoint has {sorted(have)}, config needs {sorted(want)}")


def _write_loss_csv(path: Path, reports) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "mse", "smooth", "consistency", "total"])
        for i, rep in enumerate(reports):
            w.writerow([i, _fmt(rep.mse), _fmt(rep.smooth),
                        _fmt(rep.consistency), _fmt(rep.total)])


def _draw_phantom(sc: C.SynthConfig, group: C.SynthGroup,
                  rng: np.random.Generator) -> D.PhantomParams:
    def u(rge):
        lo, hi = rge
        return float(rng.uniform(lo, hi))

    return D.PhantomParams(
        height=sc.height, width=sc.width, frame_count=sc.frame_count,
        lv_radius=u(group.lv_radius),
        myo_thickness=u(group.myo_thickness),
        rv_radius=u(group.rv_radius),
        rv_offset=u(group.rv_offset),
        contraction_amplitude=u(group.contraction_amplitude),
        noise_sigma=group.noise_sigma,
        intensity_gradient=group.intensity_gradient,
        pixel_spacing_mm=sc.pixel_spacing_mm,
        seed=int(rng.integers(0, 2**31 - 1)))


def cmd_synth(args) -> int:
    cfg = _load_config(args)
    sc = cfg.synth
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)
    counts = {"baseline_train": sc.count_baseline_train,
              "meta_train": sc.count_meta_train,
              "test_inside": sc.count_test_inside,
              "test_outside": sc.count_test_outside}
    split = D.DatasetSplit()
    for split_name in D.SPLIT_NAMES:
        outside = split_name == "test_outside"
        group = sc.outside if outside else sc.inside
        category = "outside" if outside else "inside"
        for i in range(counts[split_name]):
            p = _draw_phantom(sc, group, rng)
            video, masks, _ = D.generate_phantom(p)
            video = D.preprocess(video, (sc.height, sc.width))
            vid = f"{split_name}_{i:03d}"
            vpath = out / f"{vid}.fvid"
            D.write_video(vpath, video)
            mpaths = []
            for t, m in enumerate(masks):
                mp = out / f"{vid}_m{t:02d}.fmsk"
                D.write_mask(mp, m)
                mpaths.append(mp)
            split.of(split_name).append(
                D.ManifestEntry(vid, vpath, mpaths, category, split_name))
    D.save_manifest(out / "manifest.json", split)
    print(f"wrote {len(split.all_entries())} videos and "
          f"{out / 'manifest.json'}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args)
    split = D.load_manifest(args.manifest)
    if not split.baseline_train:
        raise ValueError("manifest has no baseline_train videos")
    videos = [D.load_entry(e)[0] for e in split.baseline_train]
    theta0 = N.init_params(cfg.net, seed=cfg.seed)
    every = max(1, cfg.train.steps // 10)

    def progress(step, rep):
        if step % every == 0 or step == cfg.train.steps - 1:
            print(f"step {step}: total {rep.total:.6f} (mse {rep.mse:.6f})")

    t0 = time.perf_counter()
    theta, history = train_baseline(
        cfg.net, theta0, videos, cfg.train.steps, cfg.train.batch_pairs,
        cfg.train.learning_rate, cfg.loss, seed=cfg.seed, progress=progress)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    D.write_checkpoint(out / "baseline.fckp", theta)
    _write_loss_csv(out / "train_loss.csv", history)
    print(f"trained {cfg.train.steps} steps in "
          f"{time.perf_counter() - t0:.1f} s; wrote {out / 'baseline.fckp'}")
    return EXIT_OK


def cmd_meta_train(args) -> int:
    cfg = _load_config(args)
    split = D.load_manifest(args.manifest)
    if not split.meta_train:
        raise ValueError("manifest has no meta_train videos")
    videos = [D.load_entry(e)[0] for e in split.meta_train]
    if args.checkpoint:
        theta0 = D.read_checkpoint(args.checkpoint)
        _validate_checkpoint(cfg, theta0)
    else:
        theta0 = N.init_params(cfg.net, seed=cfg.seed)
    every = max(1, cfg.meta.meta_steps // 10)

    def progress(rec):
        if rec.step % every == 0 or rec.step == cfg.meta.meta_steps - 1:
            print(f"meta step {rec.step}: held-out total "
                  f"{rec.heldout.total:.6f}")

    t0 = time.perf_counter()
    theta, records = meta_train(cfg.net, theta0, videos, cfg.meta, cfg.loss,
                                progress=progress)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    D.write_checkpoint(out / "meta.fckp", theta)
    _write_loss_csv(out / "meta_progress.csv", [r.heldout for r in records])
    print(f"ran {cfg.meta.meta_steps} meta steps in "
          f"{time.perf_counter() - t0:.1f} s; wrote {out / 'meta.fckp'}")
    return EXIT_OK


def _eval_one(cfg: C.RunConfig, params, adapt: str, idx: int,
              entry: D.ManifestEntry):
    video, masks = D.load_entry(entry)
    adapt_ms = None
    theta = params
    if adapt == "foal":
        ocfg = dataclasses.replace(cfg.online, seed=cfg.online.seed + idx)
        t0 = time.perf_counter()
        theta, _ = online_adapt(cfg.net, params, video, ocfg, cfg.loss)
        adapt_ms = (time.perf_counter() - t0) * 1000.0
    return evaluate_video(cfg.net, theta, video, masks), adapt_ms


def _aggregate(rows: list[dict], category: str, label: int) -> list[list]:
    mine = [r for r in rows if r["category"] == category
            and r["label"] == label]
    if not mine:
        return []
    dices = [r["dice"] for r in mine]
    hauss = [r["hausdorff_mm"] for r in mine if not math.isnan(r["hausdorff_mm"])]
    n_present = sum(r["present"] for r in mine)

    def mean(v):
        return sum(v) / len(v) if v else float("nan")

    def std(v):
        if not v:
            return float("nan")
        m = mean(v)
        return math.sqrt(sum((x - m) ** 2 for x in v) / len(v))

    return [
        [f"{category}_mean", category, label, n_present,
         _fmt(mean(dices)), _fmt(mean(hauss))],
        [f"{category}_std", category, label, n_present,
         _fmt(std(dices)), _fmt(std(hauss))],
    ]


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    split = D.load_manifest(args.manifest)
    entries = split.test_inside + split.test_outside
    if not entries:
        raise ValueError("manifest has no test videos")
    if args.threads < 1:
        raise ValueError(f"thread count must be >= 1, got {args.threads}")
    params = D.read_checkpoint(args.checkpoint)
    _validate_checkpoint(cfg, params)
    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        results = list(pool.map(partial(_eval_one, cfg, params, args.adapt),
                                range(len(entries)), entries))

    rows: list[dict] = []
    for entry, (report, adapt_ms) in zip(entries, results):
        # wall time goes to stdout only; the CSV stays machine-comparable
        timing = "no adaptation" if adapt_ms is None else f"adapt {adapt_ms:7.1f} ms"
        mean_dice = sum(report.dice.values()) / len(report.dice)
        print(f"{entry.video_id}: {timing}, mean dice {mean_dice:.4f}")
        for lab in _EVAL_LABELS:
            rows.append({"video_id": entry.video_id,
                         "category": entry.category,
                         "label": lab,
                         "present": int(report.present[lab]),
                         "dice": report.dice[lab],
                         "hausdorff_mm": report.hausdorff_mm[lab]})

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "metrics.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["video_id", "category", "label", "present",
                    "dice", "hausdorff_mm"])
        for r in rows:
            w.writerow([r["video_id"], r["category"], r["label"],
                        r["present"], _fmt(r["dice"]), _fmt(r["hausdorff_mm"])])
        for category in ("inside", "outside"):
            for lab in _EVAL_LABELS:
                for row in _aggregate(rows, category, lab):
                    w.writerow(row)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = run_suite(seed=args.seed)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:28s} max_rel_err {r.max_rel_err:.3e} "
              f"(tolerance {r.tolerance:g})")
    if all(r.passed for r in results):
        print(f"all {len(results)} gradient checks passed")
        return EXIT_OK
    bad = sum(not r.passed for r in results)
    print(f"{bad} of {len(results)} gradient checks failed", file=sys.stderr)
    return EXIT_CHECK_FAILED


def build_parser() -> _Parser:
    p = _Parser(prog="foal", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON run configuration")
        sp.add_argument("--seed", type=int,
                        help="override the configured seed")

    sp = sub.add_parser("synth", help="render a phantom dataset")
    common(sp)
    sp.add_argument("--out", required=True, help="output directory")
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("train", help="baseline self-supervised pretraining")
    common(sp)
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("meta-train", help="adaptation-aware refinement")
    common(sp)
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--checkpoint", help="starting weights (default: fresh init)")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_meta_train)

    sp = sub.add_parser("eval", help="adapt per video and report metrics")
    sp.add_argument("--config", help="JSON run configuration")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--adapt", choices=("none", "foal"), default="foal")
    sp.add_argument("--threads", type=int, default=1,
                    help="worker threads, one video each (default: 1)")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed of the random inputs and weights checked (default: 0)")
    sp.set_defaults(func=cmd_gradcheck)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, D.FormatError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
