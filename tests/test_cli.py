"""End-to-end command line behaviour on a miniature dataset."""

import csv
import json
import math
import re

import pytest

from foal import data as D
from foal.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, main
from foal.metrics import evaluate_video
from foal.network import NetConfig

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
        assert split.test_outside[0].category == "outside"
        assert split.test_inside[0].category == "inside"
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


class TestTrain:
    def test_checkpoint_matches_architecture(self, workspace):
        params = D.read_checkpoint(workspace["run"] / "baseline.fckp")
        cfg = NetConfig(input_size=(32, 32), encoder_channels=(8, 16))
        from foal.network import init_params
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


class TestErrorPaths:
    def test_missing_manifest(self, tmp_path, capsys):
        code = main(["train", "--manifest", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"trian": {}}')
        code = main(["synth", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "unknown keys" in capsys.readouterr().err

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
            videos = [{"id": "a", "video": "a.fvid", "masks": [], "category": "inside",
                       "split": "test_inside", **videos}]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"videos": videos}))
        code = main(["eval", "--config", str(workspace["cfg"]),
                     "--manifest", str(manifest),
                     "--checkpoint", str(workspace["run"] / "meta.fckp"),
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE
        assert f"error: {manifest}" in capsys.readouterr().err

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
        assert main(["gradcheck", "--seed", "0"]) == EXIT_OK
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

        def fake_suite(seed=0):
            return [CheckResult("planted_failure", 1.0, 1e-4)]

        monkeypatch.setattr(cli_mod, "run_suite", fake_suite)
        assert main(["gradcheck"]) == EXIT_CHECK_FAILED
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "failed" in captured.err
