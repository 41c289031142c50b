"""End-to-end command line behaviour on a miniature dataset."""

import csv
import json
import math
import os
import platform
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import foal
from foal import cli
from foal import config as C
from foal import data as D
from foal.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, _draw_phantom, main
from foal.metrics import evaluate_video
from foal.network import NetConfig, init_params

CFG_DOC = {
    "seed": 11,
    "net": {"input_size": [32, 32], "encoder_channels": [8, 16]},
    "train": {"steps": 8, "batch_pairs": 4},
    "meta": {"meta_steps": 2, "videos_per_step": 2, "inner_steps": 1,
             "pairs": 4},
    "online": {"steps": 2, "pairs": 4},
    "synth": {"count_baseline_train": 2, "count_meta_train": 2,
              "count_test_inside": 2, "count_test_outside": 1},
}


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    """One synth + train + meta-train pipeline shared by the read-only tests."""
    ws = tmp_path_factory.mktemp("cli")
    cfg = ws / "cfg.json"
    cfg.write_text(json.dumps(CFG_DOC))
    data, run = ws / "data", ws / "run"
    assert main(["synth", "--config", str(cfg), "--out", str(data)]) == EXIT_OK
    manifest = data / "manifest.json"
    assert main(["train", "--config", str(cfg), "--manifest", str(manifest),
                 "--out", str(run)]) == EXIT_OK
    assert main(["meta-train", "--config", str(cfg),
                 "--manifest", str(manifest),
                 "--checkpoint", str(run / "baseline.fckp"),
                 "--out", str(run)]) == EXIT_OK
    return {"cfg": cfg, "data": data, "run": run, "manifest": manifest}


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSynth:
    def test_layout_and_manifest(self, workspace):
        split = D.load_manifest(workspace["manifest"])
        assert len(split.baseline_train) == 2
        assert len(split.meta_train) == 2
        assert len(split.test_inside) == 2
        assert len(split.test_outside) == 1
        doc = json.loads(workspace["manifest"].read_text())
        assert not any("category" in e for e in doc["videos"])
        video, masks = D.load_entry(split.test_inside[0])
        assert video.frames.shape == (8, 32, 32)
        assert len(masks) == 8

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        out2 = tmp_path / "data2"
        assert main(["synth", "--config", str(workspace["cfg"]),
                     "--out", str(out2)]) == EXIT_OK
        for p in sorted(workspace["data"].iterdir()):
            assert (out2 / p.name).read_bytes() == p.read_bytes(), p.name

    def test_relative_out_gives_a_loadable_manifest(self, workspace, tmp_path,
                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--config", str(workspace["cfg"]),
                     "--out", "data"]) == EXIT_OK
        split = D.load_manifest("data/manifest.json")
        for entry in split.all_entries():
            video, masks = D.load_entry(entry)
            assert len(masks) == video.frame_count

    def test_seed_override_changes_the_data(self, workspace, tmp_path):
        out2 = tmp_path / "data3"
        assert main(["synth", "--config", str(workspace["cfg"]),
                     "--seed", "999", "--out", str(out2)]) == EXIT_OK
        a = (workspace["data"] / "baseline_train_000.fvid").read_bytes()
        b = (out2 / "baseline_train_000.fvid").read_bytes()
        assert a != b

    def test_negative_seed_override_rejected_before_writing(self, workspace, tmp_path, capsys):
        out = tmp_path / "neg"
        assert main(["synth", "--config", str(workspace["cfg"]),
                     "--seed", "-1", "--out", str(out)]) == EXIT_USAGE
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_phantom_draws_follow_the_field_order(self):
        # the ranges are drawn in SynthGroup's field order, then the phantom
        # seed; reordering the fields would change every synthesized video
        p = _draw_phantom(C.SynthConfig(), C.SynthGroup(), np.random.default_rng(0))
        assert p.lv_radius == 7.4554425309821815
        assert p.myo_thickness == 2.26978671376387
        assert p.rv_radius == 3.5409735239361946
        assert p.rv_offset == 9.01652763552853
        assert p.contraction_amplitude == 0.28132702392002723
        assert p.seed == 1394609702
        assert (p.noise_sigma, p.intensity_gradient) == (2.0, 0.0)


class TestTrain:
    def test_checkpoint_matches_architecture(self, workspace):
        params = D.read_checkpoint(workspace["run"] / "baseline.fckp")
        cfg = NetConfig(input_size=(32, 32), encoder_channels=(8, 16))
        expected = init_params(cfg, seed=0)
        assert params.names() == expected.names()
        for n in params.names():
            assert params[n].shape == expected[n].shape

    def test_loss_csv_has_one_row_per_step(self, workspace):
        rows = read_csv(workspace["run"] / "train_loss.csv")
        assert len(rows) == CFG_DOC["train"]["steps"]
        assert list(rows[0]) == ["step", "mse", "smooth", "consistency",
                                 "total"]
        for r in rows:
            assert math.isfinite(float(r["total"]))

    def test_meta_outputs(self, workspace):
        assert (workspace["run"] / "meta.fckp").exists()
        rows = read_csv(workspace["run"] / "meta_progress.csv")
        assert len(rows) == CFG_DOC["meta"]["meta_steps"]

    def test_meta_train_seed_seeds_the_meta_loop(self, workspace, tmp_path):
        # the starting weights come from the checkpoint, so only the meta
        # loop's draws can tell the two seeds apart
        blobs = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            assert main(["meta-train", "--config", str(workspace["cfg"]),
                         "--manifest", str(workspace["manifest"]),
                         "--checkpoint", str(workspace["run"] / "baseline.fckp"),
                         "--seed", seed, "--out", str(out)]) == EXIT_OK
            blobs.append((out / "meta.fckp").read_bytes())
        assert blobs[0] != blobs[1]

    def test_meta_train_without_checkpoint_starts_from_the_seeded_init(self, workspace,
                                                                     tmp_path):
        cfg = C.from_json(workspace["cfg"])
        init = tmp_path / "init.fckp"
        D.write_checkpoint(init, init_params(cfg.net, seed=cfg.seed))
        blobs = []
        for name, extra in (("fresh", []), ("given", ["--checkpoint", str(init)])):
            out = tmp_path / name
            assert main(["meta-train", "--config", str(workspace["cfg"]),
                         "--manifest", str(workspace["manifest"]),
                         "--out", str(out), *extra]) == EXIT_OK
            blobs.append((out / "meta.fckp").read_bytes())
        assert blobs[0] == blobs[1]


class TestEval:
    def test_adapt_none_matches_direct_evaluation(self, workspace, tmp_path):
        out = tmp_path / "eval"
        assert main(["eval", "--config", str(workspace["cfg"]),
                     "--manifest", str(workspace["manifest"]),
                     "--checkpoint", str(workspace["run"] / "meta.fckp"),
                     "--out", str(out), "--adapt", "none"]) == EXIT_OK
        rows = read_csv(out / "metrics.csv")
        per_video = [r for r in rows if r["video_id"].startswith("test_")]

        params = D.read_checkpoint(workspace["run"] / "meta.fckp")
        cfg = NetConfig(input_size=(32, 32), encoder_channels=(8, 16))
        split = D.load_manifest(workspace["manifest"])
        it = iter(per_video)
        for entry in split.test_inside + split.test_outside:
            video, masks = D.load_entry(entry)
            rep = evaluate_video(cfg, params, video, masks)
            for lab in (1, 2, 3):
                row = next(it)
                assert row["video_id"] == entry.video_id
                assert int(row["label"]) == lab
                assert float(row["dice"]) == rep.dice[lab]
                h_csv = float(row["hausdorff_mm"])
                if math.isnan(rep.hausdorff_mm[lab]):
                    assert math.isnan(h_csv)
                else:
                    assert h_csv == rep.hausdorff_mm[lab]

    def test_adapted_rerun_is_byte_identical(self, workspace, tmp_path):
        outs = []
        for name, threads in (("e1", "1"), ("e2", "2")):
            out = tmp_path / name
            assert main(["eval", "--config", str(workspace["cfg"]),
                         "--manifest", str(workspace["manifest"]),
                         "--checkpoint", str(workspace["run"] / "meta.fckp"),
                         "--out", str(out), "--adapt", "foal",
                         "--threads", threads]) == EXIT_OK
            outs.append((out / "metrics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_aggregate_rows_recompute(self, workspace, tmp_path):
        out = tmp_path / "eval"
        assert main(["eval", "--config", str(workspace["cfg"]),
                     "--manifest", str(workspace["manifest"]),
                     "--checkpoint", str(workspace["run"] / "baseline.fckp"),
                     "--out", str(out), "--adapt", "foal"]) == EXIT_OK
        rows = read_csv(out / "metrics.csv")
        per_video = [r for r in rows if r["video_id"].startswith("test_")]
        for category in ("inside", "outside"):
            for lab in ("1", "2", "3"):
                mine = [r for r in per_video if r["category"] == category
                        and r["label"] == lab]
                dices = [float(r["dice"]) for r in mine]
                mean_row = next(r for r in rows
                                if r["video_id"] == f"{category}_mean"
                                and r["label"] == lab)
                std_row = next(r for r in rows
                               if r["video_id"] == f"{category}_std"
                               and r["label"] == lab)
                m = sum(dices) / len(dices)
                s = math.sqrt(sum((x - m) ** 2 for x in dices) / len(dices))
                assert float(mean_row["dice"]) == pytest.approx(m, abs=1e-15)
                assert float(std_row["dice"]) == pytest.approx(s, abs=1e-15)
                assert int(mean_row["present"]) == sum(
                    int(r["present"]) for r in mine)
                for r in mine:
                    assert int(r["hausdorff_excluded"]) == math.isnan(
                        float(r["hausdorff_mm"]))
                for agg in (mean_row, std_row):
                    assert int(agg["hausdorff_excluded"]) == sum(
                        int(r["hausdorff_excluded"]) for r in mine)

    def test_population_follows_the_split(self, workspace, tmp_path):
        # an older manifest with a category per entry still loads, and a
        # misspelt category no longer drops a video from the mean rows
        doc = json.loads(workspace["manifest"].read_text())
        for e in doc["videos"]:
            e["video"] = str(workspace["data"] / e["video"])
            e["masks"] = [str(workspace["data"] / m) for m in e["masks"]]
            e["category"] = "outside" if e["split"] == "test_outside" else "inside"
        next(e for e in doc["videos"] if e["split"] == "test_inside")["category"] = "insde"
        old = tmp_path / "manifest.json"
        old.write_text(json.dumps(doc))
        outs = []
        for name, manifest in (("e1", workspace["manifest"]), ("e2", old)):
            out = tmp_path / name
            assert main(["eval", "--config", str(workspace["cfg"]),
                         "--manifest", str(manifest),
                         "--checkpoint", str(workspace["run"] / "meta.fckp"),
                         "--out", str(out), "--adapt", "none"]) == EXIT_OK
            outs.append((out / "metrics.csv").read_bytes())
        assert outs[0] == outs[1]
        rows = read_csv(tmp_path / "e2" / "metrics.csv")
        assert sum(r["category"] == "inside" for r in rows
                   if r["video_id"].startswith("test_")) == 3 * 2

    def test_timing_goes_to_stdout_not_csv(self, workspace, tmp_path, capsys):
        out = tmp_path / "eval"
        assert main(["eval", "--config", str(workspace["cfg"]),
                     "--manifest", str(workspace["manifest"]),
                     "--checkpoint", str(workspace["run"] / "meta.fckp"),
                     "--out", str(out), "--adapt", "foal"]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "adapt" in stdout and "ms" in stdout
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert "ms" not in header and "time" not in header

    def test_checkpoint_architecture_mismatch(self, workspace, tmp_path,
                                              capsys):
        cfg2 = tmp_path / "cfg2.json"
        doc = dict(CFG_DOC, net={"input_size": [32, 32],
                                 "encoder_channels": [4, 8]})
        cfg2.write_text(json.dumps(doc))
        code = main(["eval", "--config", str(cfg2),
                     "--manifest", str(workspace["manifest"]),
                     "--checkpoint", str(workspace["run"] / "meta.fckp"),
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE
        assert "architecture" in capsys.readouterr().err

    def test_main_sets_the_malloc_policy_once(self, tmp_path, monkeypatch):
        # training frees a graph every step, so every subcommand runs under
        # the limits, not only eval
        calls = []
        monkeypatch.setattr(cli, "_one_malloc_arena", lambda: calls.append(1))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {
            "count_baseline_train": 0, "count_meta_train": 0,
            "count_test_inside": 1, "count_test_outside": 0}}))
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d")]) == EXIT_OK
        assert calls == [1]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
    def test_eval_threads_share_one_arena(self):
        # malloc_stats prints one "Arena <n>:" block per arena in use
        probe = textwrap.dedent("""
            import ctypes, sys, threading
            import numpy as np
            from foal import cli
            if sys.argv[1] == "shared":
                cli._one_malloc_arena()
            worker = threading.Thread(target=lambda: np.ones(1 << 16).sum())
            worker.start()
            worker.join()
            ctypes.CDLL(None).malloc_stats()
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(foal.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS="1")
        arenas = {mode: subprocess.run([sys.executable, "-c", probe, mode], env=env,
                                       capture_output=True, text=True,
                                       check=True).stderr.count("Arena ")
                  for mode in ("default", "shared")}
        assert arenas == {"default": 2, "shared": 1}


class TestErrorPaths:
    def test_missing_manifest(self, tmp_path, capsys):
        code = main(["train", "--manifest", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command,split", [("train", "baseline_train"),
                                               ("meta-train", "meta_train")])
    def test_empty_training_split_exits_1(self, workspace, tmp_path, capsys,
                                          command, split):
        split_doc = D.load_manifest(workspace["manifest"])
        split_doc.of(split).clear()
        manifest = tmp_path / "manifest.json"
        D.save_manifest(manifest, split_doc)
        code = main([command, "--config", str(workspace["cfg"]),
                     "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert f"error: manifest has no {split} videos" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_eval_without_test_videos_exits_1(self, workspace, tmp_path, capsys):
        split = D.load_manifest(workspace["manifest"])
        split.test_inside.clear()
        split.test_outside.clear()
        manifest = tmp_path / "manifest.json"
        D.save_manifest(manifest, split)
        code = main(["eval", "--config", str(workspace["cfg"]), "--manifest", str(manifest),
                     "--checkpoint", str(workspace["run"] / "meta.fckp"),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "error: manifest has no test videos" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"trian": {}}')
        code = main(["synth", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "unknown keys" in capsys.readouterr().err

    def test_overflowing_population_range_writes_nothing(self, tmp_path, capsys):
        # the upper corner of this range overflows the 32x32 frame, which a
        # draw near the top would reach only after earlier videos were written
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"synth": {"inside": {"lv_radius": [6.5, 12.4]}}}')
        code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "inside" in err and "overflows" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("spacing", [[1.0, 1.0, 1.0], [-1.0, 1.0]])
    def test_bad_pixel_spacing_fails_at_config_load(self, tmp_path, capsys, spacing):
        # three spacings used to reach the FVID writer as a struct.error traceback
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"pixel_spacing_mm": spacing}}))
        code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: config.synth") and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_zero_threads_rejected(self, workspace, tmp_path, capsys):
        code = main(["eval", "--config", str(workspace["cfg"]),
                     "--manifest", str(workspace["manifest"]),
                     "--checkpoint", str(workspace["run"] / "meta.fckp"),
                     "--out", str(tmp_path / "x"), "--threads", "0"])
        assert code == EXIT_USAGE
        assert "error: thread count must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_eval_takes_no_seed(self, workspace, tmp_path, capsys):
        # adaptation draws from the configured online.seed, so a --seed that
        # eval would ignore is a usage error instead
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--config", str(workspace["cfg"]),
                  "--manifest", str(workspace["manifest"]),
                  "--checkpoint", str(workspace["run"] / "meta.fckp"),
                  "--out", str(tmp_path / "x"), "--seed", "3"])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("videos", [5, {"video": 3}, {"id": ["a"]}, {"masks": 7}])
    def test_malformed_manifest_exits_1(self, workspace, tmp_path, capsys, videos):
        if isinstance(videos, dict):
            videos = [{"id": "a", "video": "a.fvid", "masks": [],
                       "split": "test_inside", **videos}]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"videos": videos}))
        code = main(["eval", "--config", str(workspace["cfg"]),
                     "--manifest", str(manifest),
                     "--checkpoint", str(workspace["run"] / "meta.fckp"),
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE
        assert f"error: {manifest}" in capsys.readouterr().err

    def test_entry_without_masks_names_the_video(self, workspace, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"videos": [{
            "id": "no_masks", "video": str(workspace["data"] / "test_inside_000.fvid"),
            "masks": [], "split": "test_inside"}]}))
        out = tmp_path / "eval"
        code = main(["eval", "--config", str(workspace["cfg"]),
                     "--manifest", str(manifest),
                     "--checkpoint", str(workspace["run"] / "meta.fckp"),
                     "--out", str(out), "--adapt", "none"])
        assert code == EXIT_USAGE
        assert ("error: video 'no_masks': need one mask per frame, got 0 for 8"
                in capsys.readouterr().err)
        assert not (out / "metrics.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_adaptation_exits_1_without_metrics(self, workspace,
                                                          tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(CFG_DOC, online={
            "steps": 3, "pairs": 4, "optimizer": "sgd", "learning_rate": 1e6})))
        out = tmp_path / "eval"
        assert main(["eval", "--config", str(cfg),
                     "--manifest", str(workspace["manifest"]),
                     "--checkpoint", str(workspace["run"] / "meta.fckp"),
                     "--out", str(out)]) == EXIT_USAGE
        assert re.search(r"error: video '\w+': step \d", capsys.readouterr().err)
        assert not (out / "metrics.csv").exists()

    def test_argparse_usage_error_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--adapt", "bogus", "--manifest", "m",
                  "--checkpoint", "c", "--out", "o"])
        assert exc.value.code == EXIT_USAGE


class TestGradcheckCommand:
    def test_passes_and_prints_every_check(self, capsys):
        assert main(["gradcheck"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") >= 14
        assert "FAIL" not in out
        assert "all" in out
        convs = [f"{op}_{arg}" for op in ("conv2d", "conv2d_stride1", "conv_transpose2d")
                 for arg in ("input", "weight", "bias")]
        assert [line.split()[1] for line in out.splitlines()[:-1]] == [
            "elementwise_chain", "leaky_relu", "concat_slice", "take", *convs,
            "warp_image_values", "warp_flow", "loss_smooth", "loss_consistency",
            "full_network_loss_total"]

    def test_exit_code_2_on_failure(self, monkeypatch, capsys):
        from foal import cli as cli_mod
        from foal.gradcheck import CheckResult

        def fake_suite():
            return [CheckResult("planted_failure", 1.0, 1e-4)]

        monkeypatch.setattr(cli_mod, "run_suite", fake_suite)
        assert main(["gradcheck"]) == EXIT_CHECK_FAILED
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "failed" in captured.err
