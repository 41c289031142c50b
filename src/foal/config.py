"""Run configuration: one strict JSON document covering every stage.

Parsing rejects unknown keys anywhere in the tree so that a typo like
"learning_rte" fails loudly instead of silently training with a default.
Each value must have its default's type (lists become tuples) and every
float must be finite; range validation lives in each __post_init__.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

from foal.adapt import MetaConfig, OnlineConfig
from foal.data import SPLIT_NAMES, PhantomParams
from foal.losses import LossWeights
from foal.network import NetConfig


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class TrainSettings:
    """Baseline pretraining schedule."""

    steps: int = 600
    batch_pairs: int = 20
    learning_rate: float = 1e-3

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.batch_pairs < 1:
            raise ValueError(f"batch_pairs must be >= 1, got {self.batch_pairs}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")


@dataclass(frozen=True)
class SynthGroup:
    """One phantom population: each tuple field is a (lo, hi) range drawn uniformly per video."""

    lv_radius: tuple[float, float] = (6.5, 8.0)
    myo_thickness: tuple[float, float] = (2.0, 3.0)
    rv_radius: tuple[float, float] = (3.5, 4.5)
    rv_offset: tuple[float, float] = (9.0, 10.0)
    contraction_amplitude: tuple[float, float] = (0.2, 0.3)
    noise_sigma: float = 2.0
    intensity_gradient: float = 0.0

    def __post_init__(self):
        for name, r in asdict(self).items():
            if isinstance(r, tuple) and (len(r) != 2 or r[0] > r[1]):
                raise ValueError(f"{name} must be (lo, hi) with lo <= hi, got {r}")


def _default_outside() -> SynthGroup:
    # thicker walls and a strong intensity ramp: a population the training
    # distribution never shows
    return SynthGroup(lv_radius=(6.0, 7.5), myo_thickness=(4.0, 6.0),
                      rv_radius=(3.0, 4.0), rv_offset=(9.0, 10.5),
                      contraction_amplitude=(0.25, 0.35), noise_sigma=2.0,
                      intensity_gradient=0.35)


@dataclass(frozen=True)
class SynthConfig:
    """Phantom dataset layout: counts per split plus the two populations."""

    height: int = 32
    width: int = 32
    frame_count: int = 8
    count_baseline_train: int = 10
    count_meta_train: int = 10
    count_test_inside: int = 20
    count_test_outside: int = 20
    pixel_spacing_mm: tuple[float, float] = (1.0, 1.0)
    inside: SynthGroup = field(default_factory=SynthGroup)
    outside: SynthGroup = field(default_factory=_default_outside)

    def __post_init__(self):
        for split in SPLIT_NAMES:
            if getattr(self, f"count_{split}") < 0:
                raise ValueError(f"count_{split} must be >= 0")
        if self.frame_count < 2:
            raise ValueError("frame_count must be >= 2")
        # each phantom check is monotone in every drawn field, so a group's
        # all-lo and all-hi corners bound every draw from it
        for name in ("inside", "outside"):
            for end in (0, 1):
                corner = {k: v[end] if isinstance(v, tuple) else v
                          for k, v in asdict(getattr(self, name)).items()}
                try:
                    PhantomParams(height=self.height, width=self.width,
                                  frame_count=self.frame_count,
                                  pixel_spacing_mm=self.pixel_spacing_mm, **corner)
                except ValueError as e:
                    raise ValueError(f"{name}: {e}") from e


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    net: NetConfig = field(default_factory=NetConfig)
    loss: LossWeights = field(default_factory=LossWeights)
    online: OnlineConfig = field(default_factory=OnlineConfig)
    meta: MetaConfig = field(default_factory=MetaConfig)
    train: TrainSettings = field(default_factory=TrainSettings)
    synth: SynthConfig = field(default_factory=SynthConfig)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _leaf(value, proto, where: str):
    """`value` checked against the type of its default `proto`: lists become tuples
    checked per element, an int takes no bool or float, a float any finite number."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where}: {value} is not a finite number")
    if isinstance(proto, tuple) and isinstance(value, list):
        return tuple(_leaf(v, proto[0], f"{where}[{i}]") for i, v in enumerate(value))
    want = (int, float) if isinstance(proto, float) else type(proto)
    if isinstance(value, bool) or not isinstance(value, want):
        raise ConfigError(f"{where}: expected {type(proto).__name__}, "
                          f"got {type(value).__name__} {value!r}")
    return value


def _build(dc_type, obj, where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {type(obj).__name__}")
    known = {f.name: f for f in fields(dc_type)}
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    kwargs = {}
    for name, value in obj.items():
        f = known[name]
        proto = None
        if f.default_factory is not MISSING:  # type: ignore[misc]
            proto = f.default_factory()  # type: ignore[misc]
        elif f.default is not MISSING:
            proto = f.default
        if is_dataclass(proto):
            kwargs[name] = _build(type(proto), value, f"{where}.{name}")
        else:
            kwargs[name] = _leaf(value, proto, f"{where}.{name}")
    try:
        return dc_type(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where}: {e}") from e


def from_dict(doc: dict) -> RunConfig:
    return _build(RunConfig, doc, "config")


def from_json(path) -> RunConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text at byte offset {e.start}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: not valid JSON ({e})") from e
    return from_dict(doc)


def to_json(cfg: RunConfig, path) -> None:
    Path(path).write_text(json.dumps(asdict(cfg), indent=2) + "\n")
