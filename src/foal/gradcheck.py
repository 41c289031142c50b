"""Finite-difference verification of every differentiable building block.

Every check runs `_check`: the backward gradient of a scalar function of one
array, its other inputs held constant, against central differences (h = 1e-5),
as the worst elementwise |analytic - numeric| / max(1, |numeric|). Primitive
ops must agree to 1e-4; the full network, checked one parameter at a time,
stacks more rounding in its difference quotients and gets 1e-3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from foal import losses as L
from foal import network as N
from foal import tensor as T
from foal.losses import LossWeights
from foal.network import MotionField, NetConfig, ParamSet
from foal.tensor import Tensor

PRIMITIVE_TOL = 1e-4
NETWORK_TOL = 1e-3


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


def finite_diff(f: Callable[[np.ndarray], float], x: np.ndarray,
                h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, one element at a time."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def _check(name: str, build: Callable[[Tensor], Tensor], x0: np.ndarray,
           tol: float = PRIMITIVE_TOL) -> CheckResult:
    """Gradient of build(x) w.r.t. x against finite differences."""
    x = Tensor(x0.copy(), requires_grad=True)
    build(x).backward()

    def f(arr: np.ndarray) -> float:
        with T.no_grad():
            return build(Tensor(arr)).item()

    num = finite_diff(f, x0.copy())
    err = np.max(np.abs(x.grad - num) / np.maximum(1.0, np.abs(num)))
    return CheckResult(name, float(err), tol)


def _lattice_margin(cfg: NetConfig, params: ParamSet, src: np.ndarray,
                    ref: np.ndarray) -> float:
    """Distance from every warp sample coordinate to the nearest bilinear kink.

    Bilinear interpolation is piecewise linear with kinks on integer grid
    lines (the border clamp also lands on integers). A central difference
    straddling a kink is wrong, so the composite check below only uses
    parameter points whose sample coordinates keep a healthy margin.
    Coordinates far outside the image sit in the constant clamp region and
    are ignored.
    """
    h, w = cfg.input_size
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    margin = np.inf
    with T.no_grad():
        for a, b in ((src, ref), (ref, src)):
            flow = N.predict_flow(cfg, params, a, b)
            for coords, limit in ((xx + flow.vx.data, w - 1.0),
                                  (yy + flow.vy.data, h - 1.0)):
                frac = np.abs(coords - np.round(coords))
                active = (coords > -0.5) & (coords < limit + 0.5)
                if active.any():
                    margin = min(margin, float(frac[active].min()))
    return margin


def run_suite(seed: int = 0) -> list[CheckResult]:
    """All gradient checks, primitives through the full network."""
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []

    # elementwise chain exercising add / mul / square / scalar_mul / mean
    other = Tensor(rng.normal(size=(3, 4)))
    results.append(_check(
        "elementwise_chain",
        lambda x: T.mean(T.scalar_mul(T.mul(T.square(T.add(x, other)), x), 0.7)),
        rng.normal(size=(3, 4))))

    # leaky_relu off the kink
    x0 = rng.normal(size=(2, 6))
    x0[np.abs(x0) < 0.05] += 0.2
    results.append(_check("leaky_relu",
                          lambda x: T.mean(T.leaky_relu(x, 0.1)), x0))

    # reductions and shaping
    results.append(_check("concat_slice",
                          lambda x: T.total(T.square(T.slice_hw(
                              T.concat_channels([x, x]), 1, 3, 0, 2))),
                          rng.normal(size=(2, 4, 4))))
    # row gather with a repeated and an unused row
    results.append(_check("take",
                          lambda x: T.total(T.square(T.take(x, [2, 0, 2, 2]))),
                          np.linspace(-1.0, 1.0, 12).reshape(4, 3)))

    # conv2d at stride 2 (encoder) and 1 (fuse, head), conv_transpose2d at
    # stride 2 (decoder), each in input, weight and bias
    conv = [rng.normal(size=s) for s in ((1, 2, 6, 6), (3, 2, 3, 3), 3)]
    tconv = [rng.normal(size=s) for s in ((1, 3, 4, 4), (3, 2, 4, 4), 2)]
    for tag, op, stride, args in (("conv2d", T.conv2d, 2, conv),
                                  ("conv2d_stride1", T.conv2d, 1, conv),
                                  ("conv_transpose2d", T.conv_transpose2d, 2, tconv)):
        for i, arg in enumerate(("input", "weight", "bias")):
            def build(x, op=op, stride=stride, args=args, i=i):
                xs = [x if j == i else Tensor(a) for j, a in enumerate(args)]
                return T.mean(T.square(op(*xs, stride, 1)))

            results.append(_check(f"{tag}_{arg}", build, args[i]))

    # warp: image argument, then flow argument with off-kink coordinates
    img = rng.normal(size=(1, 5, 6))
    vx = rng.uniform(0.1, 0.9, size=(1, 5, 6)) * np.where(
        np.arange(6)[None, :] < 3, 1.0, -1.0)
    vy = rng.uniform(0.1, 0.9, size=(1, 5, 6)) * np.where(
        np.arange(5)[:, None] < 3, 1.0, -1.0)
    flow_fixed = MotionField(Tensor(vx), Tensor(vy))
    results.append(_check("warp_image_values",
                          lambda x: T.mean(T.square(
                              L.warp_image(x, flow_fixed))), img.copy()))

    results.append(_check("warp_flow",
                          lambda x: T.mean(T.square(L.warp_image(
                              Tensor(img), MotionField(x, Tensor(vy))))), vx))

    # loss terms as functions of the flow
    results.append(_check("loss_smooth",
                          lambda x: L.loss_smooth(MotionField(x, Tensor(vy))),
                          rng.normal(size=(1, 5, 6))))
    bwd = MotionField(Tensor(rng.uniform(-0.8, 0.8, (1, 5, 6))),
                      Tensor(rng.uniform(-0.8, 0.8, (1, 5, 6))))
    results.append(_check("loss_consistency",
                          lambda x: L.loss_consistency(
                              MotionField(x, Tensor(vy)), bwd),
                          rng.uniform(-0.8, 0.8, (1, 5, 6))))

    # full composite: three-term loss through the whole network. Unit-scale
    # frames keep the difference quotients well conditioned.
    cfg = NetConfig(input_size=(8, 8), encoder_channels=(4, 4))
    params = N.init_params(cfg, seed=seed + 1)
    src = rng.uniform(0.0, 1.0, (1, *cfg.input_size))
    ref = rng.uniform(0.0, 1.0, (1, *cfg.input_size))
    # steer the flows off the kink lattice; see _lattice_margin
    for bias in ((0.37, -0.29), (0.43, -0.41), (0.31, 0.47), (-0.53, 0.23),
                 (0.61, 0.39), (-0.27, -0.57)):
        params["head.bias"].data[:] = bias
        if _lattice_margin(cfg, params, src, ref) >= 0.02:
            break
    else:
        raise RuntimeError("could not find an off-lattice flow configuration")
    weights = LossWeights()
    frames, pairs = np.concatenate([src, ref]), [(0, 1)]

    # one parameter at a time, the others held constant; the worst one counts
    arrays = params.to_arrays()
    worst = 0.0
    for name in params.names():
        def loss(x, name=name):
            theta = ParamSet({n: x if n == name else Tensor(a) for n, a in arrays.items()})
            return L.loss_total(cfg, theta, frames, pairs, weights)[0]

        worst = max(worst, _check(name, loss, arrays[name], NETWORK_TOL).max_rel_err)
    results.append(CheckResult("full_network_loss_total", worst, NETWORK_TOL))

    return results
