"""Self-supervised registration loss: photometric + smoothness + cycle terms.

The total is

    L = L_mse + alpha_s * L_smooth + beta_c * L_consistency

evaluated bidirectionally: the network predicts both source->reference and
reference->source fields, the photometric and smoothness terms average the
two directions, and the consistency term couples them. Swapping the frame
arguments therefore leaves the total unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from foal import network as N
from foal import tensor as T
from foal.network import MotionField, NetConfig, ParamSet
from foal.tensor import ShapeError, Tensor


@dataclass(frozen=True)
class LossWeights:
    alpha_s: float = 5e-5
    beta_c: float = 1e-6

    def __post_init__(self):
        if self.alpha_s < 0 or self.beta_c < 0:
            raise ValueError("loss weights must be non-negative")


@dataclass(frozen=True)
class LossReport:
    """Scalar summary of one loss evaluation (already weighted into total)."""

    mse: float
    smooth: float
    consistency: float
    total: float


def bilinear_gather(image: np.ndarray, sx: np.ndarray, sy: np.ndarray):
    """Sample image [N,H,W] at continuous coords (sx, sy), clamping to the
    border. Returns the samples plus the corner indices/weights needed for
    the backward pass (and reused by the label-mask warp)."""
    n, h, w = image.shape
    cx = np.clip(sx, 0.0, w - 1.0)
    cy = np.clip(sy, 0.0, h - 1.0)
    x0 = np.floor(cx).astype(np.int64)
    y0 = np.floor(cy).astype(np.int64)
    np.clip(x0, 0, max(w - 2, 0), out=x0)
    np.clip(y0, 0, max(h - 2, 0), out=y0)
    wx = cx - x0
    wy = cy - y0

    # flat index of each top-left corner; the other three are fixed offsets
    k00 = (np.arange(n)[:, None, None] * h + y0) * w + x0
    dx, dy = int(w > 1), w * int(h > 1)
    corners = (k00, k00 + dx, k00 + dy, k00 + dy + dx)
    flat = image.ravel()
    i00, i01, i10, i11 = (np.take(flat, k) for k in corners)
    top = i00 * (1.0 - wx) + i01 * wx
    bot = i10 * (1.0 - wx) + i11 * wx
    out = top * (1.0 - wy) + bot * wy
    cache = (corners, wx, wy, i00, i01, i10, i11)
    return out, cache


def warp_image(image, flow: MotionField) -> Tensor:
    """Backward-warp: output pixel p takes the value image[p + flow(p)],
    bilinearly interpolated with border clamping; image and flow are [N,H,W].

    Differentiable in both the image values and the flow. The flow gradient
    is zeroed where the raw sample coordinate falls outside the image, since
    clamping makes the output locally constant there.
    """
    img = image if isinstance(image, Tensor) else Tensor(image)
    vx, vy = flow.vx, flow.vy
    if img.shape != vx.shape:
        raise ShapeError(f"warp_image: image shape {img.shape} != flow shape {vx.shape}")
    if img.ndim != 3:
        raise ShapeError(f"warp_image: expected [N,H,W], got {img.shape}")

    n, h, w = img.shape
    sx = vx.data + np.arange(w, dtype=np.float64)
    sy = vy.data + np.arange(h, dtype=np.float64)[:, None]

    out, cache = bilinear_gather(img.data, sx, sy)
    corners, wx, wy, i00, i01, i10, i11 = cache
    in_x = (sx >= 0.0) & (sx <= w - 1.0)
    in_y = (sy >= 0.0) & (sy <= h - 1.0)

    def vjp(g):
        g_img = g_vx = g_vy = None
        if img.requires_grad:
            flat = np.zeros(n * h * w)
            for k, ww in zip(corners, ((1 - wx) * (1 - wy), wx * (1 - wy),
                                       (1 - wx) * wy, wx * wy)):
                flat += np.bincount(k.ravel(), weights=(g * ww).ravel(),
                                    minlength=n * h * w)
            g_img = flat.reshape(n, h, w)
        if vx.requires_grad:
            d = ((i01 - i00) * (1 - wy) + (i11 - i10) * wy) * in_x
            g_vx = g * d
        if vy.requires_grad:
            d = ((i10 - i00) * (1 - wx) + (i11 - i01) * wx) * in_y
            g_vy = g * d
        return g_img, g_vx, g_vy

    return T._record(out, (img, vx, vy), vjp)


def loss_mse(warped, reference) -> Tensor:
    """Mean squared intensity error over all pixels of all pairs."""
    w = warped if isinstance(warped, Tensor) else Tensor(warped)
    r = reference if isinstance(reference, Tensor) else Tensor(reference)
    if w.shape != r.shape:
        raise ShapeError(f"loss_mse: shapes {w.shape} and {r.shape} differ")
    return T.mean(T.square(T.sub(w, r)))


def loss_smooth(flow: MotionField) -> Tensor:
    """Mean squared forward difference of both flow components.

    Sums squared dx and dy differences over the valid interior and divides
    by the full pixel count, so a unit-slope ramp over W columns scores
    (W-1)/W rather than 1.
    """
    vx, vy = flow.vx, flow.vy
    h, w = vx.shape[-2], vx.shape[-1]
    if h < 2 or w < 2:
        raise ShapeError(f"loss_smooth needs at least 2x2 fields, got {vx.shape}")
    acc = None
    for comp in (vx, vy):
        dx = T.sub(T.slice_hw(comp, 0, h, 1, w), T.slice_hw(comp, 0, h, 0, w - 1))
        dy = T.sub(T.slice_hw(comp, 1, h, 0, w), T.slice_hw(comp, 0, h - 1, 0, w))
        for d in (dx, dy):
            s = T.total(T.square(d))
            acc = s if acc is None else T.add(acc, s)
    return T.scalar_mul(acc, 1.0 / vx.data.size)


def _cycle_residual(a: MotionField, b: MotionField) -> Tensor:
    """mean_p || a(p) + b(p + a(p)) ||^2 with bilinear lookup of b."""
    bx_at = warp_image(b.vx, a)
    by_at = warp_image(b.vy, a)
    ex = T.add(a.vx, bx_at)
    ey = T.add(a.vy, by_at)
    return T.add(T.mean(T.square(ex)), T.mean(T.square(ey)))


def loss_consistency(fwd: MotionField, bwd: MotionField) -> Tensor:
    """Forward-backward cycle error, symmetrized over the two fields.

    Zero when the fields are exact inverses; a one-pixel uncompensated
    shift against a zero reverse field scores 1.
    """
    if fwd.shape != bwd.shape:
        raise ShapeError(f"loss_consistency: shapes {fwd.shape} and {bwd.shape} differ")
    return T.scalar_mul(T.add(_cycle_residual(fwd, bwd),
                              _cycle_residual(bwd, fwd)), 0.5)


def loss_total(cfg: NetConfig, params: ParamSet, frames, pairs,
               weights: LossWeights = LossWeights()) -> tuple[Tensor, LossReport]:
    """Bidirectional three-term loss over (source, reference) index `pairs`
    into a [T,H,W] frame stack.

    Each frame is encoded once. Of the 2N forward and backward rows
    [src; ref] -> [ref; src], each distinct ordered pair is decoded once and
    its field gathered back to the rows that use it. Returns the
    differentiable total plus a float report whose total equals
    mse + alpha_s*smooth + beta_c*consistency exactly as accumulated.
    """
    frames = np.asarray(frames, dtype=np.float64)
    src, ref = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    grid = (len(frames), len(frames))  # key src * T + ref; an index outside raises
    keys, inverse = np.unique(np.ravel_multi_index(
        (np.concatenate([src, ref]), np.concatenate([ref, src])), grid), return_inverse=True)
    feat = N.encode(cfg, params, frames)
    flow = N.decode(cfg, params, feat, feat, *np.unravel_index(keys, grid))
    fwd, bwd = (MotionField(T.take(flow.vx, rows), T.take(flow.vy, rows))
                for rows in np.split(inverse, 2))
    source, reference = frames[src], frames[ref]

    mse = T.scalar_mul(T.add(loss_mse(warp_image(source, fwd), reference),
                             loss_mse(warp_image(reference, bwd), source)), 0.5)
    smooth = T.scalar_mul(T.add(loss_smooth(fwd), loss_smooth(bwd)), 0.5)
    con = loss_consistency(fwd, bwd)

    total = T.add(T.add(mse, T.scalar_mul(smooth, weights.alpha_s)),
                  T.scalar_mul(con, weights.beta_c))
    report = LossReport(mse=mse.item(), smooth=smooth.item(),
                        consistency=con.item(), total=total.item())
    return total, report
