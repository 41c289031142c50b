"""Training loops: baseline pretraining, online adaptation, meta-learning.

Online adaptation clones the incoming parameters, samples one batch of frame
pairs from the test video, and takes a few optimizer steps on the
self-supervised loss. Nothing about the video's ground truth is used.

Meta-learning shapes the initialization so that those few steps help as much
as possible: each meta step adapts a clone to every sampled video (inner
loop), measures the adapted loss on freshly drawn held-out pairs, and moves
the shared initialization along the average of the held-out gradients. The
gradients are taken at the adapted parameters and applied to the shared
ones, a first-order approximation that skips differentiating through the
inner loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from foal import losses as L
from foal import network as N
from foal.data import Video
from foal.losses import LossReport, LossWeights
from foal.network import NetConfig, ParamSet
from foal.optim import Adam, SGD
from foal.tensor import Tensor


@dataclass(frozen=True)
class OnlineConfig:
    """Test-time adaptation: `steps` optimizer updates on one batch of
    `pairs` frame pairs drawn once up front."""

    steps: int = 3
    pairs: int = 24
    learning_rate: float = 1e-4
    optimizer: str = "adam"
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.pairs < 1:
            raise ValueError(f"pairs must be >= 1, got {self.pairs}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"optimizer must be 'adam' or 'sgd', got "
                             f"'{self.optimizer}'")


@dataclass(frozen=True)
class MetaConfig:
    """Meta-training: `videos_per_step` videos per meta step, `inner_steps`
    SGD updates at `inner_lr` per video, Adam at `meta_lr` on the average
    held-out gradient. inner_steps may be 0, which reduces a meta step to a
    plain training step on held-out batches."""

    videos_per_step: int = 2
    inner_steps: int = 5
    pairs: int = 24
    inner_lr: float = 1e-5
    meta_lr: float = 1e-5
    meta_steps: int = 6000
    seed: int = 0

    def __post_init__(self):
        if self.videos_per_step < 1:
            raise ValueError(f"videos_per_step must be >= 1, got {self.videos_per_step}")
        if self.inner_steps < 0:
            raise ValueError(f"inner_steps must be >= 0, got {self.inner_steps}")
        if self.pairs < 1:
            raise ValueError(f"pairs must be >= 1, got {self.pairs}")
        if self.inner_lr <= 0 or self.meta_lr <= 0:
            raise ValueError("learning rates must be positive")
        if self.meta_steps < 0:
            raise ValueError(f"meta_steps must be >= 0, got {self.meta_steps}")


@dataclass(frozen=True)
class MetaStepRecord:
    """Held-out loss averaged over the videos of one meta step."""

    step: int
    heldout: LossReport


def sample_pairs(frame_count: int, k: int,
                 rng: np.random.Generator) -> list[tuple[int, int]]:
    """k uniform ordered (source, reference) pairs with source != reference."""
    if frame_count < 2:
        raise ValueError(f"need >= 2 frames to form pairs, got {frame_count}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    a = rng.integers(0, frame_count, size=k)
    b = rng.integers(0, frame_count - 1, size=k)
    b = b + (b >= a)
    return list(zip(a.tolist(), b.tolist()))


def batch_loss(cfg: NetConfig, params: ParamSet, video: Video,
               pairs: Sequence[tuple[int, int]],
               weights: LossWeights) -> tuple[Tensor, LossReport]:
    """Three-term loss over a stack of frame pairs from one video."""
    return L.loss_total(cfg, params, video.frames, pairs, weights)


def descend(cfg: NetConfig, theta: ParamSet, video: Video,
            pairs: Sequence[tuple[int, int]], weights: LossWeights,
            opt: Adam | SGD, steps: int) -> list[LossReport]:
    """`steps` optimizer updates of theta, in place, on one fixed batch of
    pairs. Returns the loss report of each step, taken before its update."""
    reports: list[LossReport] = []
    for _ in range(steps):
        theta.zero_grad()
        loss, rep = batch_loss(cfg, theta, video, pairs, weights)
        loss.backward()
        opt.step(theta, theta.grads())
        reports.append(rep)
    return reports


def online_adapt(cfg: NetConfig, base: ParamSet, video: Video,
                 ocfg: OnlineConfig,
                 weights: LossWeights = LossWeights()
                 ) -> tuple[ParamSet, list[LossReport]]:
    """Adapt a copy of `base` to one video; `base` itself is untouched.

    The pair batch is drawn once and reused for every step, so the loop is
    a short deterministic descent on a fixed self-supervised objective.
    """
    theta = base.clone()
    rng = np.random.default_rng(ocfg.seed)
    pairs = sample_pairs(video.frame_count, ocfg.pairs, rng)
    opt = (Adam(ocfg.learning_rate) if ocfg.optimizer == "adam"
           else SGD(ocfg.learning_rate))
    return theta, descend(cfg, theta, video, pairs, weights, opt, ocfg.steps)


def meta_inner(cfg: NetConfig, theta: ParamSet, video: Video, mcfg: MetaConfig,
               weights: LossWeights, rng: np.random.Generator) -> ParamSet:
    """Inner loop of one meta step: clone the shared parameters and take
    `inner_steps` SGD updates on one batch from this video.

    Consumes the rng once for the batch (only when inner_steps > 0)."""
    theta_i = theta.clone()
    if mcfg.inner_steps > 0:
        pairs = sample_pairs(video.frame_count, mcfg.pairs, rng)
        descend(cfg, theta_i, video, pairs, weights, SGD(mcfg.inner_lr), mcfg.inner_steps)
    return theta_i


def meta_gradient(cfg: NetConfig, theta_i: ParamSet, video: Video,
                  heldout: Sequence[tuple[int, int]], weights: LossWeights
                  ) -> tuple[dict[str, np.ndarray], LossReport]:
    """Held-out gradient at the adapted parameters.

    This is the first-order meta-gradient: it is evaluated at theta_i but
    applied to the shared initialization, with no backprop through the
    inner-loop updates."""
    theta_i.zero_grad()
    loss, rep = batch_loss(cfg, theta_i, video, heldout, weights)
    loss.backward()
    return {n: theta_i[n].grad.copy() for n in theta_i.names()}, rep


def meta_train_step(cfg: NetConfig, theta: ParamSet, videos: Sequence[Video],
                    mcfg: MetaConfig, weights: LossWeights, meta_opt: Adam,
                    rng: np.random.Generator, step: int) -> MetaStepRecord:
    """One outer update of the shared initialization.

    rng consumption order, relied on for reproducibility: video choice,
    then per chosen video an inner batch (if inner_steps > 0) followed by a
    held-out batch. Per-video gradients accumulate in draw order and are
    divided by the video count before the Adam step.
    """
    if not videos:
        raise ValueError("meta_train_step needs at least one video")
    n = min(mcfg.videos_per_step, len(videos))
    chosen = rng.choice(len(videos), size=n, replace=False)

    accum: dict[str, np.ndarray] = {
        name: np.zeros_like(theta[name].data) for name in theta.names()}
    reports: list[LossReport] = []
    for vi in chosen:
        video = videos[int(vi)]
        theta_i = meta_inner(cfg, theta, video, mcfg, weights, rng)
        heldout = sample_pairs(video.frame_count, mcfg.pairs, rng)
        grads, rep = meta_gradient(cfg, theta_i, video, heldout, weights)
        for name in accum:
            accum[name] += grads[name]
        reports.append(rep)
    for name in accum:
        accum[name] /= n

    meta_opt.step(theta, accum)
    mean = lambda xs: float(np.mean(xs))
    return MetaStepRecord(step=step, heldout=LossReport(
        mse=mean([r.mse for r in reports]),
        smooth=mean([r.smooth for r in reports]),
        consistency=mean([r.consistency for r in reports]),
        total=mean([r.total for r in reports])))


def meta_train(cfg: NetConfig, theta0: ParamSet, videos: Sequence[Video],
               mcfg: MetaConfig, weights: LossWeights = LossWeights(),
               progress: Callable[[MetaStepRecord], None] | None = None
               ) -> tuple[ParamSet, list[MetaStepRecord]]:
    """Run `meta_steps` outer updates from theta0 (which is left unchanged)."""
    theta = theta0.clone()
    rng = np.random.default_rng(mcfg.seed)
    meta_opt = Adam(mcfg.meta_lr)
    records: list[MetaStepRecord] = []
    for step in range(mcfg.meta_steps):
        rec = meta_train_step(cfg, theta, videos, mcfg, weights, meta_opt,
                              rng, step)
        records.append(rec)
        if progress is not None:
            progress(rec)
    return theta, records


def train_baseline(cfg: NetConfig, theta0: ParamSet, videos: Sequence[Video],
                   steps: int, batch_pairs: int, learning_rate: float,
                   weights: LossWeights = LossWeights(), seed: int = 0,
                   progress: Callable[[int, LossReport], None] | None = None
                   ) -> tuple[ParamSet, list[LossReport]]:
    """Standard self-supervised pretraining over a video collection.

    Each step draws one video and one batch of pairs from it, then takes an
    Adam step. Returns the trained copy plus the per-step loss history.
    """
    if not videos:
        raise ValueError("train_baseline needs at least one video")
    theta = theta0.clone()
    rng = np.random.default_rng(seed)
    opt = Adam(learning_rate)
    history: list[LossReport] = []
    for step in range(steps):
        video = videos[int(rng.integers(0, len(videos)))]
        pairs = sample_pairs(video.frame_count, batch_pairs, rng)
        history += descend(cfg, theta, video, pairs, weights, opt, 1)
        if progress is not None:
            progress(step, history[-1])
    return theta, history
