"""SHA-256 fingerprints of seeded foal results, for checking that a change
keeps every output bit for bit.

    python3 tools/fingerprint.py

Run it in two checkouts and compare the printed lines. It imports foal from
the `src/` directory of its own checkout, takes no options and runs in
seconds. BLAS may sum in another order at another thread count, so hashes
compare only between runs with the same BLAS thread environment, which is
printed first.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import foal  # noqa: E402
from foal import adapt as A  # noqa: E402
from foal import cli  # noqa: E402
from foal import data as D  # noqa: E402
from foal import metrics as M  # noqa: E402
from foal import network as N  # noqa: E402

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def sha(*objs) -> str:
    """ParamSets hash by name and raw float64 bytes, bytes as they are, and
    everything else by repr, which round-trips every float exactly."""
    h = hashlib.sha256()
    for obj in objs:
        if isinstance(obj, N.ParamSet):
            for name, t in obj.items():
                h.update(name.encode())
                h.update(t.data.tobytes())
        elif isinstance(obj, bytes):
            h.update(obj)
        else:
            h.update(repr(obj).encode())
    return h.hexdigest()


def quiet(argv: list[str]) -> str:
    """Run the foal command line on argv; its stdout, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, argv
    return out.getvalue()


def reports(rs) -> list:
    return [dataclasses.astuple(r) for r in rs]


def main() -> None:
    assert Path(foal.__file__).resolve().is_relative_to(SRC), foal.__file__
    for var in BLAS_VARS:
        print(f"{var}={os.environ.get(var, '(unset)')}")

    cfg = N.NetConfig()
    base = N.init_params(cfg, seed=0)
    videos, masks, warped = [], [], []
    for seed in range(3):
        video, m, flows = D.generate_phantom(D.PhantomParams(seed=seed))
        videos.append(D.preprocess(video))
        masks.append(m)
        # ground-truth flows move labels by fractions of a pixel, where a
        # network's flows at these weights mostly clamp to the border
        warped += [M.warp_mask(m[0], *flow).labels.tobytes() for flow in flows]
    print(f"warp_mask ground-truth flows  {sha(*warped)}")
    for opt in ("adam", "sgd"):
        for i, video in enumerate(videos):
            theta, reps = A.online_adapt(cfg, base, video, A.OnlineConfig(optimizer=opt, seed=i))
            scores = dataclasses.asdict(M.evaluate_video(cfg, theta, video, masks[i]))
            print(f"online_adapt {opt} video {i}  {sha(theta, reports(reps), scores)}")

    theta, history = A.train_baseline(cfg, base, videos, steps=4, batch_pairs=6,
                                      learning_rate=1e-3, seed=0)
    print(f"train_baseline  {sha(theta, reports(history))}")
    for inner in (5, 0):
        mcfg = A.MetaConfig(inner_steps=inner, pairs=6, meta_steps=2)
        theta, records = A.meta_train(cfg, base, videos, mcfg, seed=0)
        print(f"meta_train inner_steps {inner}  "
              f"{sha(theta, [(r.step, dataclasses.astuple(r.heldout)) for r in records])}")

    print(f"gradcheck  {sha(quiet(['gradcheck']))}")

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config = root / "config.json"
        # a rate at which 2 online steps from these fresh weights move labels
        config.write_text(json.dumps({
            "online": {"steps": 2, "pairs": 6, "learning_rate": 1e-2},
            "synth": {"count_baseline_train": 0, "count_meta_train": 0,
                      "count_test_inside": 2, "count_test_outside": 2}}))
        quiet(["synth", "--config", str(config), "--out", str(root / "data")])
        D.write_checkpoint(root / "base.fckp", base)
        csvs = []
        for adapt, threads in (("foal", "1"), ("foal", "2"), ("none", "1")):
            out = root / f"eval_{adapt}{threads}"
            quiet(["eval", "--config", str(config), "--manifest", str(root / "data" / "manifest.json"),
                   "--checkpoint", str(root / "base.fckp"), "--out", str(out),
                   "--threads", threads, "--adapt", adapt])
            csvs.append((out / "metrics.csv").read_bytes())
        assert csvs[0] == csvs[1], "metrics.csv differs between --threads 1 and 2"
        assert csvs[0] != csvs[2], "adaptation left metrics.csv as --adapt none writes it"
        print(f"eval metrics.csv, --threads 1 and 2  {sha(csvs[0])}")

        # the training commands and unadapted eval, on a second tiny tree
        config = root / "train.json"
        config.write_text(json.dumps({
            "train": {"steps": 2, "batch_pairs": 6}, "meta": {"meta_steps": 1, "pairs": 6},
            "synth": {"count_baseline_train": 2, "count_meta_train": 2,
                      "count_test_inside": 1, "count_test_outside": 1}}))
        data, run = root / "train_data", root / "run"
        manifest = str(data / "manifest.json")
        quiet(["synth", "--config", str(config), "--out", str(data)])
        quiet(["train", "--config", str(config), "--manifest", manifest, "--out", str(run)])
        quiet(["meta-train", "--config", str(config), "--manifest", manifest,
               "--checkpoint", str(run / "baseline.fckp"), "--out", str(run)])
        quiet(["eval", "--config", str(config), "--manifest", manifest,
               "--checkpoint", str(run / "meta.fckp"), "--out", str(run), "--adapt", "none"])
        outputs = [(run / name).read_bytes() for name in (
            "baseline.fckp", "train_loss.csv", "meta.fckp", "meta_progress.csv", "metrics.csv")]
        print(f"train, meta-train, eval --adapt none  {sha(*outputs)}")


if __name__ == "__main__":
    main()
