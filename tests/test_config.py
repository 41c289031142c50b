"""Strict-JSON configuration parsing."""

import json
import re
from pathlib import Path

import pytest

from foal import config as C
from foal.adapt import MetaConfig, OnlineConfig
from foal.config import ConfigError, RunConfig
from foal.network import NetConfig


class TestDefaults:
    def test_empty_doc_gives_defaults(self):
        assert C.from_dict({}) == RunConfig()

    def test_partial_override_keeps_other_defaults(self):
        cfg = C.from_dict({"seed": 9, "train": {"steps": 50}})
        assert cfg.seed == 9
        assert cfg.train.steps == 50
        assert cfg.train.batch_pairs == RunConfig().train.batch_pairs
        assert cfg.net == NetConfig()

    def test_nested_sections_map_to_their_dataclasses(self):
        cfg = C.from_dict({
            "net": {"input_size": [16, 16], "encoder_channels": [4, 8]},
            "online": {"steps": 5, "optimizer": "sgd"},
            "meta": {"inner_steps": 0},
        })
        assert cfg.net == NetConfig(input_size=(16, 16),
                                    encoder_channels=(4, 8))
        assert cfg.online == OnlineConfig(steps=5, optimizer="sgd")
        assert cfg.meta == MetaConfig(inner_steps=0)

    def test_lists_become_tuples(self):
        cfg = C.from_dict({"synth": {"pixel_spacing_mm": [1.5, 2.0]}})
        assert cfg.synth.pixel_spacing_mm == (1.5, 2.0)
        cfg = C.from_dict({"synth": {"inside": {"lv_radius": [6.0, 7.0]}}})
        assert cfg.synth.inside.lv_radius == (6.0, 7.0)


class TestStrictness:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match=r"config: unknown keys \['sed'\]"):
            C.from_dict({"sed": 1})

    def test_unknown_nested_key_names_the_path(self):
        with pytest.raises(ConfigError, match=r"config\.net: unknown keys"):
            C.from_dict({"net": {"learning_rte": 1}})
        # the kernel sizes and slope are module constants, not settings
        with pytest.raises(ConfigError, match=r"config\.net: unknown keys \['kernel'\]"):
            C.from_dict({"net": {"kernel": 3}})
        with pytest.raises(ConfigError,
                           match=r"config\.synth\.inside: unknown keys"):
            C.from_dict({"synth": {"inside": {"radius": [1, 2]}}})
        # meta-training draws from the run's top-level seed
        with pytest.raises(ConfigError, match=r"config\.meta: unknown keys \['seed'\]"):
            C.from_dict({"meta": {"seed": 1}})

    def test_non_object_section_rejected(self):
        with pytest.raises(ConfigError, match=r"config\.net: expected an object"):
            C.from_dict({"net": 3})

    @pytest.mark.parametrize("doc,want", [
        ({"online": {"steps": -1}}, "config.online: steps must be >= 0, got -1"),
        ({"online": {"pairs": 0}}, "config.online: pairs must be >= 1, got 0"),
        ({"online": {"learning_rate": 0.0}},
         "config.online: learning_rate must be positive, got 0.0"),
        ({"meta": {"videos_per_step": 0}}, "config.meta: videos_per_step must be >= 1, got 0"),
        ({"meta": {"inner_steps": -1}}, "config.meta: inner_steps must be >= 0, got -1"),
        ({"meta": {"pairs": 0}}, "config.meta: pairs must be >= 1, got 0"),
        ({"meta": {"inner_lr": 0.0}}, "config.meta: learning rates must be positive"),
        ({"meta": {"meta_lr": -1e-5}}, "config.meta: learning rates must be positive"),
        ({"meta": {"meta_steps": -1}}, "config.meta: meta_steps must be >= 0, got -1"),
        ({"train": {"steps": -1}}, "config.train: steps must be >= 0, got -1"),
        ({"train": {"batch_pairs": 0}}, "config.train: batch_pairs must be >= 1, got 0"),
        ({"train": {"learning_rate": 0.0}},
         "config.train: learning_rate must be positive, got 0.0"),
        ({"synth": {"count_meta_train": -1}}, "config.synth: count_meta_train must be >= 0"),
        ({"synth": {"frame_count": 1}}, "config.synth: frame_count must be >= 2"),
        ({"synth": {"inside": {"lv_radius": [8.0, 6.0]}}},
         "config.synth.inside: lv_radius must be (lo, hi) with lo <= hi, got (8.0, 6.0)"),
        ({"net": {"encoder_channels": []}}, "config.net: encoder_channels must be non-empty"),
        ({"net": {"encoder_channels": [1]}},
         "config.net: encoder channels must be >= 2, got (1,)"),
        ({"loss": {"beta_c": -1.0}}, "config.loss: loss weights must be non-negative"),
        # PhantomParams' checks, reached through a group's all-lo or all-hi corner
        ({"synth": {"inside": {"contraction_amplitude": [0.2, 1.0]}}},
         "config.synth: inside: contraction_amplitude must lie in [0, 1), got 1.0"),
        ({"synth": {"outside": {"lv_radius": [0.0, 7.5]}}},
         "config.synth: outside: radii, thickness, and offset must be positive"),
        ({"synth": {"inside": {"noise_sigma": -1.0}}},
         "config.synth: inside: noise_sigma and intensity_gradient must be >= 0"),
        ({"synth": {"outside": {"intensity_gradient": 1.0}}},
         "config.synth: outside: intensity_gradient must stay below 1"),
        # negative seeds, at the top level and in a section
        ({"seed": -3}, "config: seed must be >= 0, got -3"),
        ({"online": {"seed": -3}}, "config.online: seed must be >= 0, got -3"),
    ])
    def test_invalid_value_becomes_config_error(self, doc, want):
        with pytest.raises(ConfigError, match="^" + re.escape(want)):
            C.from_dict(doc)

    @pytest.mark.parametrize("doc,path", [
        ({"seed": float("nan")}, "config.seed"),
        ({"loss": {"alpha_s": float("nan")}}, "config.loss.alpha_s"),
        ({"online": {"learning_rate": float("nan")}}, "config.online.learning_rate"),
        ({"meta": {"inner_lr": float("inf")}}, "config.meta.inner_lr"),
        ({"train": {"learning_rate": float("nan")}}, "config.train.learning_rate"),
        ({"synth": {"pixel_spacing_mm": [float("nan"), 1.0]}},
         "config.synth.pixel_spacing_mm[0]"),
        ({"synth": {"outside": {"noise_sigma": float("-inf")}}},
         "config.synth.outside.noise_sigma"),
    ])
    def test_non_finite_number_names_the_path(self, doc, path):
        with pytest.raises(ConfigError, match=re.escape(path) + ": .* is not a finite number"):
            C.from_dict(doc)

    @pytest.mark.parametrize("doc,path,want", [
        ({"seed": "x"}, "config.seed", "int, got str 'x'"),
        ({"seed": 1.0}, "config.seed", "int, got float 1.0"),
        ({"synth": {"count_test_inside": 1.5}}, "config.synth.count_test_inside",
         "int, got float 1.5"),
        ({"online": {"pairs": True}}, "config.online.pairs", "int, got bool True"),
        ({"online": {"learning_rate": False}}, "config.online.learning_rate",
         "float, got bool False"),
        ({"online": {"optimizer": 1}}, "config.online.optimizer", "str, got int 1"),
        ({"net": {"input_size": 32}}, "config.net.input_size", "tuple, got int 32"),
        ({"net": {"encoder_channels": [4, 8.0]}}, "config.net.encoder_channels[1]",
         "int, got float 8.0"),
        ({"synth": {"pixel_spacing_mm": [1.0, "1"]}}, "config.synth.pixel_spacing_mm[1]",
         "float, got str '1'"),
        ({"synth": {"inside": {"noise_sigma": [2.0]}}}, "config.synth.inside.noise_sigma",
         "float, got list [2.0]"),
    ])
    def test_wrong_type_names_the_path(self, doc, path, want):
        with pytest.raises(ConfigError, match=re.escape(f"{path}: expected {want}")):
            C.from_dict(doc)

    def test_numbers_of_either_kind_fill_float_fields(self):
        cfg = C.from_dict({"online": {"learning_rate": 1},
                           "synth": {"inside": {"lv_radius": [6, 7.5]}}})
        assert cfg.online.learning_rate == 1
        assert cfg.synth.inside.lv_radius == (6, 7.5)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_json_literal_rejected(self, tmp_path, literal):
        # json.loads reads all four as floats that are not finite
        p = tmp_path / "cfg.json"
        p.write_text('{"online": {"learning_rate": %s}}' % literal)
        with pytest.raises(ConfigError, match=r"config\.online\.learning_rate: "):
            C.from_json(p)

    def test_default_populations_build_valid_phantoms(self):
        # every corner of both draw ranges must satisfy phantom geometry
        from foal.data import PhantomParams
        sc = RunConfig().synth
        for group in (sc.inside, sc.outside):
            for lv in group.lv_radius:
                for myo in group.myo_thickness:
                    for rv in group.rv_radius:
                        for off in group.rv_offset:
                            PhantomParams(
                                height=sc.height, width=sc.width,
                                lv_radius=lv, myo_thickness=myo,
                                rv_radius=rv, rv_offset=off,
                                contraction_amplitude=group.contraction_amplitude[1],
                                noise_sigma=group.noise_sigma,
                                intensity_gradient=group.intensity_gradient)


class TestFiles:
    def test_round_trip(self, tmp_path):
        cfg = C.from_dict({"seed": 4, "net": {"encoder_channels": [8, 16]},
                           "meta": {"meta_lr": 3e-5}})
        p = tmp_path / "cfg.json"
        C.to_json(cfg, p)
        assert C.from_json(p) == cfg

    def test_round_trip_is_stable_on_disk(self, tmp_path):
        cfg = RunConfig()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        C.to_json(cfg, a)
        C.to_json(C.from_json(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            C.from_json(tmp_path / "absent.json")

    def test_bad_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            C.from_json(p)

    def test_non_utf8_file(self, tmp_path):
        p = tmp_path / "utf16.json"
        p.write_bytes(b"\xff\xfe{}")
        want = f"{p}: not UTF-8 text at byte offset 0"
        with pytest.raises(ConfigError, match=re.escape(want)):
            C.from_json(p)

    def test_readme_configuration_block_is_the_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("\n## Configuration\n", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert C.from_dict(json.loads(block)) == RunConfig()

    def test_json_document_is_plain_data(self, tmp_path):
        p = tmp_path / "cfg.json"
        C.to_json(RunConfig(), p)
        doc = json.loads(p.read_text())
        assert doc["net"]["input_size"] == [32, 32]
        assert doc["synth"]["outside"]["intensity_gradient"] == 0.35
