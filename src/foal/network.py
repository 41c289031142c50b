"""Siamese encoder-decoder that maps a frame pair to a dense motion field.

`encode` runs frames through one shared encoder (strided 3x3 convs), one
feature row per frame. `decode` fuses the pairs that index rows pick from a
source and a reference feature stack, then upsamples back to input resolution
by strided transposed convs. `fuse` is linear in its input channels, so its
source half and its reference half each run once per feature row. The head
emits two channels: horizontal displacement vx (+x right) and vertical vy
(+y down), in pixels, describing where each target-frame pixel samples from
in the source frame. `predict_flow` decodes the row-aligned pairs of two
encoded stacks; a loss over one video decodes each distinct frame pair once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from foal import tensor as T
from foal.tensor import ShapeError, Tensor

KERNEL = 3  # odd, so pad k // 2 keeps the size at stride 1
UP_KERNEL = 4  # with stride 2 and pad k/2 - 1, an even k >= 4 doubles the size exactly
LEAKY_SLOPE = 0.1


@dataclass(frozen=True)
class NetConfig:
    """Architecture hyperparameters (kernels and slope are module constants).

    encoder_channels lists the output width of each stride-2 encoder block;
    the decoder mirrors it. input_size is (height, width) and must be
    divisible by 2 ** len(encoder_channels).
    """

    input_size: tuple[int, int] = (32, 32)
    encoder_channels: tuple[int, ...] = (16, 32, 64)

    def __post_init__(self):
        if not self.encoder_channels:
            raise ValueError("encoder_channels must be non-empty")
        if any(c < 2 for c in self.encoder_channels):
            raise ValueError(f"encoder channels must be >= 2, got {self.encoder_channels}")
        if self.encoder_channels[0] % 2:
            raise ValueError("first encoder width must be even (the last decoder "
                             f"stage halves it), got {self.encoder_channels[0]}")
        h, w = self.input_size
        f = 2 ** len(self.encoder_channels)
        if h % f or w % f or h < f or w < f:
            raise ValueError(f"input_size {self.input_size} must be divisible by "
                             f"{f} (one halving per encoder block)")

    @property
    def depth(self) -> int:
        return len(self.encoder_channels)


class ParamSet:
    """Named, ordered collection of trainable tensors.

    Iteration order is the construction order and is relied on for
    deterministic optimizer updates and serialization.
    """

    def __init__(self, tensors: dict[str, Tensor]):
        self._tensors = dict(tensors)

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __len__(self) -> int:
        return len(self._tensors)

    def names(self) -> list[str]:
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def zero_grad(self) -> None:
        for t in self._tensors.values():
            t.grad = None

    def clone(self) -> "ParamSet":
        """Deep copy with fresh gradient buffers; edits never touch the source."""
        out = {}
        for name, t in self._tensors.items():
            out[name] = Tensor(t.data.copy(), requires_grad=True)
        return ParamSet(out)

    def grads(self) -> dict[str, np.ndarray]:
        """Collected gradients for every parameter that has one."""
        return {n: t.grad for n, t in self._tensors.items() if t.grad is not None}

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {n: t.data.copy() for n, t in self._tensors.items()}

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "ParamSet":
        return cls({n: Tensor(a.copy(), requires_grad=True) for n, a in arrays.items()})

    def allclose(self, other: "ParamSet", rtol=1e-12, atol=1e-12) -> bool:
        if self.names() != other.names():
            return False
        return all(np.allclose(self[n].data, other[n].data, rtol=rtol, atol=atol)
                   for n in self.names())


@dataclass
class MotionField:
    """Dense displacement field, one (vx, vy) pair per pixel.

    Network outputs are [N, H, W], one row per frame pair. [H, W] fields are
    only phantom ground truth and the argument of `metrics.warp_mask`.
    """

    vx: Tensor
    vy: Tensor

    def __post_init__(self):
        if self.vx.shape != self.vy.shape:
            raise ShapeError(f"vx shape {self.vx.shape} != vy shape {self.vy.shape}")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.vx.shape

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vx.data, self.vy.data


def _layer_plan(cfg: NetConfig) -> list[tuple[str, str, tuple[int, ...]]]:
    """(name, kind, weight_shape) for every layer, in forward order."""
    chans = cfg.encoder_channels
    plan = []
    cin = 1
    for i, c in enumerate(chans, start=1):
        plan.append((f"enc{i}", "conv", (c, cin, KERNEL, KERNEL)))
        cin = c
    plan.append(("fuse", "conv", (chans[-1], 2 * chans[-1], KERNEL, KERNEL)))
    up_out = list(chans[:-1][::-1]) + [chans[0] // 2]
    cin = chans[-1]
    for i, c in enumerate(up_out, start=1):
        plan.append((f"up{i}", "convt", (cin, c, UP_KERNEL, UP_KERNEL)))
        cin = c
    plan.append(("head", "conv", (2, cin, KERNEL, KERNEL)))
    return plan


def init_params(cfg: NetConfig, seed: int) -> ParamSet:
    """Fresh weights: uniform [-b, b] with b = fan_in**-0.5, zero biases.

    fan_in counts input channels times kernel area. The draw order follows
    the forward layer order, so one seed fixes every weight.
    """
    rng = np.random.default_rng(seed)
    tensors: dict[str, Tensor] = {}
    for name, kind, wshape in _layer_plan(cfg):
        fan_in = (wshape[1] if kind == "conv" else wshape[0]) * wshape[2] * wshape[3]
        bound = 1.0 / np.sqrt(fan_in)
        cout = wshape[0] if kind == "conv" else wshape[1]
        tensors[f"{name}.weight"] = Tensor(
            rng.uniform(-bound, bound, size=wshape), requires_grad=True)
        tensors[f"{name}.bias"] = Tensor(np.zeros(cout), requires_grad=True)
    return ParamSet(tensors)


def encode(cfg: NetConfig, params: ParamSet, frames) -> Tensor:
    """Shared encoder: [T,H,W] frames -> bottleneck features [T,C,h,w].
    Each row depends on its own frame only."""
    h = T._as_tensor(frames)
    if h.ndim != 3:
        raise ShapeError(f"frames must be [N,H,W], got {h.shape}")
    if h.shape[1:] != tuple(cfg.input_size):
        raise ShapeError(f"frames spatial size {h.shape[1:]} does not match "
                         f"configured input_size {tuple(cfg.input_size)}")
    h = T.reshape(h, (h.shape[0], 1) + h.shape[1:])
    for i in range(1, cfg.depth + 1):
        h = T.conv2d(h, params[f"enc{i}.weight"], params[f"enc{i}.bias"],
                     stride=2, pad=KERNEL // 2)
        h = T.leaky_relu(h, LEAKY_SLOPE)
    return h


def decode(cfg: NetConfig, params: ParamSet, feat_src: Tensor, feat_ref: Tensor,
           src, ref) -> MotionField:
    """[N,H,W] motion field of the pairs (feat_src[src[i]], feat_ref[ref[i]])
    of two [T,C,h,w] feature stacks."""
    c, k = cfg.encoder_channels[-1], KERNEL
    w = T.reshape(params["fuse.weight"], (2 * c, c, k, k))  # row 2o + h: half h of output o
    h_src = T.conv2d(feat_src, T.take(w, np.arange(0, 2 * c, 2)), params["fuse.bias"], 1, k // 2)
    h_ref = T.conv2d(feat_ref, T.take(w, np.arange(1, 2 * c, 2)), np.zeros(c), 1, k // 2)
    h = T.leaky_relu(T.add(T.take(h_src, src), T.take(h_ref, ref)), LEAKY_SLOPE)
    for i in range(1, cfg.depth + 1):
        h = T.conv_transpose2d(h, params[f"up{i}.weight"], params[f"up{i}.bias"],
                               stride=2, pad=UP_KERNEL // 2 - 1)
        h = T.leaky_relu(h, LEAKY_SLOPE)
    out = T.conv2d(h, params["head.weight"], params["head.bias"],
                   stride=1, pad=k // 2)
    return MotionField(T.take_channel(out, 0), T.take_channel(out, 1))


def predict_flow(cfg: NetConfig, params: ParamSet, source, reference) -> MotionField:
    """[N,H,W] motion field aligning each frame of the [N,H,W] `source` stack
    toward the `reference` frame in the same row.

    The tape stays live through all layers, so backward from any loss on the
    output reaches every parameter (each encoder weight accumulates from both frames).
    """
    feat_src, feat_ref = encode(cfg, params, source), encode(cfg, params, reference)
    if feat_src.shape[0] != feat_ref.shape[0]:
        raise ShapeError(f"source batch {feat_src.shape[0]} != reference batch {feat_ref.shape[0]}")
    rows = np.arange(feat_src.shape[0])
    return decode(cfg, params, feat_src, feat_ref, rows, rows)
