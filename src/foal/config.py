"""Run configuration: one strict JSON document covering every stage.

Parsing rejects unknown keys anywhere in the tree so that a typo like
"learning_rte" fails loudly instead of silently training with a default.
Lists coerce to tuples and every float must be finite (JSON admits NaN and
Infinity); range validation lives in each dataclass's __post_init__.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

from foal.adapt import MetaConfig, OnlineConfig
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


def _check_range(name: str, r: tuple[float, float]) -> None:
    if len(r) != 2 or r[0] > r[1]:
        raise ValueError(f"{name} must be (lo, hi) with lo <= hi, got {r}")


@dataclass(frozen=True)
class SynthGroup:
    """Per-video uniform draw ranges for one phantom population."""

    lv_radius: tuple[float, float] = (6.5, 8.0)
    myo_thickness: tuple[float, float] = (2.0, 3.0)
    rv_radius: tuple[float, float] = (3.5, 4.5)
    rv_offset: tuple[float, float] = (9.0, 10.0)
    contraction_amplitude: tuple[float, float] = (0.2, 0.3)
    noise_sigma: float = 2.0
    intensity_gradient: float = 0.0

    def __post_init__(self):
        for f in ("lv_radius", "myo_thickness", "rv_radius", "rv_offset",
                  "contraction_amplitude"):
            _check_range(f, getattr(self, f))


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
        for f in ("count_baseline_train", "count_meta_train",
                  "count_test_inside", "count_test_outside"):
            if getattr(self, f) < 0:
                raise ValueError(f"{f} must be >= 0")
        if self.frame_count < 2:
            raise ValueError("frame_count must be >= 2")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    net: NetConfig = field(default_factory=NetConfig)
    loss: LossWeights = field(default_factory=LossWeights)
    online: OnlineConfig = field(default_factory=OnlineConfig)
    meta: MetaConfig = field(default_factory=MetaConfig)
    train: TrainSettings = field(default_factory=TrainSettings)
    synth: SynthConfig = field(default_factory=SynthConfig)


def _coerce(value, where: str):
    if isinstance(value, list):
        return tuple(_coerce(v, f"{where}[{i}]") for i, v in enumerate(value))
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where}: {value} is not a finite number")
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
            kwargs[name] = _coerce(value, f"{where}.{name}")
    try:
        return dc_type(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where}: {e}") from e


def from_dict(doc: dict) -> RunConfig:
    return _build(RunConfig, doc, "config")


def from_json(path) -> RunConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: not valid JSON ({e})") from e
    return from_dict(doc)


def to_json(cfg: RunConfig, path) -> None:
    Path(path).write_text(json.dumps(asdict(cfg), indent=2) + "\n")
