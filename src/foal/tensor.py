"""Reverse-mode autodiff on numpy arrays with a dynamic tape.

Every operation that sees at least one gradient-requiring input records a
node holding its inputs and a vector-Jacobian closure.  ``backward`` replays
those nodes in the exact reverse of recording order, which is a valid
topological order because an op can only consume tensors that already exist.
Gradients are accumulated additively at fan-out points and into leaf ``.grad``
buffers across repeated backward calls.

All arithmetic is float64.  The tape is not thread-safe; confine a graph and
its backward pass to one thread.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


class GradError(RuntimeError):
    """Raised on invalid backward requests (non-scalar root, detached root)."""


_STATE = threading.local()


def _grad_enabled() -> bool:
    return getattr(_STATE, "grad_enabled", True)


class no_grad:
    """Context manager that suspends tape recording."""

    def __enter__(self):
        self._prev = _grad_enabled()
        _STATE.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _STATE.grad_enabled = self._prev
        return False


_op_counter = itertools.count()


class Tensor:
    """A float64 ndarray plus optional tape bookkeeping.

    Leaves are built directly (``Tensor(data, requires_grad=True)``); op
    outputs are built through :func:`_record` and carry a vjp closure.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_order")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple] | None = None
        self._order = -1

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def is_leaf(self) -> bool:
        return self._vjp is None

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __float__(self) -> float:
        return self.item()

    def __repr__(self) -> str:
        tag = "leaf" if self.is_leaf else "op"
        return f"Tensor(shape={self.shape}, {tag}, requires_grad={self.requires_grad})"

    def zero_grad(self) -> None:
        self.grad = None

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return scalar_mul(self, -1.0)

    def backward(self) -> None:
        backward(self)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(data: np.ndarray, parents: Sequence[Tensor],
            vjp: Callable[[np.ndarray], tuple]) -> Tensor:
    """Wrap an op result, recording a tape node if gradients are live."""
    out = Tensor(data)
    if _grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
        out._order = next(_op_counter)
    return out


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into every reachable leaf's ``.grad``.

    root must be scalar.  Repeated calls keep adding; use ``zero_grad``
    between independent passes.
    """
    if root.data.size != 1:
        raise GradError(f"backward requires a scalar root, got shape {root.shape}")
    if not root.requires_grad:
        raise GradError("backward on a tensor that is not connected to any "
                        "gradient-requiring leaf")

    seed = np.ones_like(root.data)
    if root.is_leaf:
        root.grad = seed if root.grad is None else root.grad + seed
        return

    # Reachable op nodes, replayed strictly in reverse recording order.
    nodes: list[Tensor] = []
    seen = {id(root)}
    stack = [root]
    while stack:
        t = stack.pop()
        if not t.is_leaf:
            nodes.append(t)
            for p in t._parents:
                if p.requires_grad and id(p) not in seen:
                    seen.add(id(p))
                    stack.append(p)
    nodes.sort(key=lambda t: t._order, reverse=True)

    pending: dict[int, np.ndarray] = {id(root): seed}
    for node in nodes:
        gy = pending.pop(id(node), None)
        if gy is None:
            continue
        for parent, g in zip(node._parents, node._vjp(gy)):
            if g is None or not parent.requires_grad:
                continue
            if parent.is_leaf:
                parent.grad = g if parent.grad is None else parent.grad + g
            else:
                pid = id(parent)
                if pid in pending:
                    pending[pid] = pending[pid] + g
                else:
                    pending[pid] = g


# ---------------------------------------------------------------------------
# elementwise and reduction ops
# ---------------------------------------------------------------------------


def _binary_check(a: Tensor, b: Tensor, name: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{name}: operand shapes {a.shape} and {b.shape} differ")


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape == b.shape:
        return _record(a.data + b.data, (a, b), lambda g: (g, g))
    # allow scalar on either side, nothing fancier
    if a.data.size == 1:
        return _record(a.data + b.data, (a, b), lambda g: (np.sum(g, keepdims=a.ndim > 0).reshape(a.shape), g))
    if b.data.size == 1:
        return _record(a.data + b.data, (a, b), lambda g: (g, np.sum(g, keepdims=b.ndim > 0).reshape(b.shape)))
    raise ShapeError(f"add: operand shapes {a.shape} and {b.shape} differ")


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_check(a, b, "sub")
    return _record(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_check(a, b, "mul")
    return _record(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def scalar_mul(a, s: float) -> Tensor:
    a = _as_tensor(a)
    s = float(s)
    return _record(a.data * s, (a,), lambda g: (g * s,))


def square(a) -> Tensor:
    a = _as_tensor(a)
    return _record(a.data * a.data, (a,), lambda g: (2.0 * a.data * g,))


def mean(a) -> Tensor:
    a = _as_tensor(a)
    n = a.data.size
    if n == 0:
        raise ShapeError("mean of an empty tensor")
    return _record(np.asarray(a.data.mean()), (a,),
                   lambda g: (np.full(a.shape, float(g) / n),))


def total(a) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    a = _as_tensor(a)
    return _record(np.asarray(a.data.sum()), (a,),
                   lambda g: (np.full(a.shape, float(g)),))


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.data.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    return _record(a.data.reshape(shape).copy(), (a,),
                   lambda g: (g.reshape(a.shape),))


def leaky_relu(a, slope: float = 0.1) -> Tensor:
    a = _as_tensor(a)
    slope = float(slope)
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu slope must lie in (0, 1), got {slope}")
    # 0 < slope < 1: max(a, slope*a) is the value, max(a > 0, slope) the slope
    positive = a.data > 0.0
    return _record(np.maximum(a.data, slope * a.data), (a,),
                   lambda g: (g * np.maximum(positive, slope),))


def concat_channels(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate along the channel axis (third from the end)."""
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("concat_channels of an empty sequence")
    for t in ts:
        if t.ndim < 3:
            raise ShapeError(f"concat_channels needs >=3 dims, got shape {t.shape}")
        if t.shape[:-3] != ts[0].shape[:-3] or t.shape[-2:] != ts[0].shape[-2:]:
            raise ShapeError(f"concat_channels: shape {t.shape} incompatible "
                             f"with {ts[0].shape} outside the channel axis")
    sizes = [t.shape[-3] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=-3))

    return _record(np.concatenate([t.data for t in ts], axis=-3), ts, vjp)


def take_channel(a, index: int) -> Tensor:
    """Select one channel from the third-from-last axis, dropping that axis."""
    a = _as_tensor(a)
    if a.ndim < 3:
        raise ShapeError(f"take_channel needs >=3 dims, got shape {a.shape}")
    c = a.shape[-3]
    if not 0 <= index < c:
        raise ShapeError(f"take_channel: index {index} outside {c} channels")

    def vjp(g):
        out = np.zeros(a.shape)
        sl = (Ellipsis, index, slice(None), slice(None))
        out[sl] = g
        return (out,)

    return _record(a.data[..., index, :, :].copy(), (a,), vjp)


def take(a, index) -> Tensor:
    """Gather rows of the leading axis, out[i] = a[index[i]]. Rows may repeat
    or go unused; the vjp scatter-adds the gradient rows back in order."""
    a = _as_tensor(a)
    index = np.asarray(index, dtype=np.int64)
    if a.ndim < 1 or index.ndim != 1:
        raise ShapeError(f"take: need a 1-d index into rows, got {index.shape} into {a.shape}")
    bad = index[(index < 0) | (index >= len(a.data))]
    if bad.size:
        raise ShapeError(f"take: row {bad[0]} outside the {len(a.data)} rows of {a.shape}")

    def vjp(g):
        out = np.zeros(a.shape)
        np.add.at(out, index, g)
        return (out,)

    return _record(a.data[index], (a,), vjp)


def slice_hw(a, h0: int, h1: int, w0: int, w1: int) -> Tensor:
    """Slice the trailing two (height, width) axes."""
    a = _as_tensor(a)
    if a.ndim < 2:
        raise ShapeError(f"slice_hw needs >=2 dims, got shape {a.shape}")
    H, W = a.shape[-2], a.shape[-1]
    if not (0 <= h0 <= h1 <= H and 0 <= w0 <= w1 <= W):
        raise ShapeError(f"slice_hw: window [{h0}:{h1}, {w0}:{w1}] outside ({H}, {W})")

    def vjp(g):
        out = np.zeros(a.shape)
        out[..., h0:h1, w0:w1] = g
        return (out,)

    return _record(a.data[..., h0:h1, w0:w1].copy(), (a,), vjp)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------
#
# conv2d is a stride-s correlation (_corr) whose input gradient is its adjoint
# (_corr_adj), and conv_transpose2d the reverse, so <conv(u,w), v> equals
# <u, convT(v,w)> to rounding. The padded input is split into s*s polyphase
# parts, each flattened, so every tap is a GEMM on an offset view of a part.
# Forward GEMMs run per sample, so a batch row is bitwise equal to that sample
# alone; backward GEMMs run over the whole batch.


def _parts(s: int, k: int, pad: int, size: int) -> list[tuple[int, int, int, int]]:
    """(p, u0, r0, count) for each phase p < min(s, k) of an axis padded by
    pad: pixel r0 + i*s, i < count, sits at padded position (u0 + i)*s + p."""
    firsts = [(p, (p - pad) % s) for p in range(min(s, k))]
    return [(p, (r0 + pad - p) // s, r0, len(range(r0, size, s))) for p, r0 in firsts if r0 < size]


def _phases(x: np.ndarray, s: int, k: int, pad: int) -> np.ndarray:
    """[N,C,H,W] -> [s, s, C, N, hq, wq] holding padded pixel (u*s + a, v*s + b)
    at [a, b, :, :, u, v], with hq = ceil((H + 2*pad) / s) and wq likewise."""
    n, c, h, w = x.shape
    xb = np.zeros((s, s, c, n, -(-(h + 2 * pad) // s), -(-(w + 2 * pad) // s)))
    for a, u0, r0, nu in _parts(s, k, pad, h):
        for b, v0, c0, nv in _parts(s, k, pad, w):
            xb[a, b, :, :, u0:u0 + nu, v0:v0 + nv] = x[:, :, r0::s, c0::s].transpose(1, 0, 2, 3)
    return xb


def _shifted_gemm(groups, row: int, span: int) -> np.ndarray:
    """Sum over groups (w [ti, tj, M, K], x [B, K, L]) and taps (i, j) of
    w[i, j] @ x shifted by i*row + j, as [B, M, span], one GEMM per row of B.
    Taps are stacked on the narrower side: shifted views of x along K when
    M > K, else products with x along M, summed through their shifts."""
    def shifted(a):  # [B, ti, tj, R, L] -> [B, ti, tj, R, span]
        st = a.strides
        return as_strided(a, a.shape[:4] + (span,), (st[0], st[1] + row * st[4],
                          st[2] + st[4], st[3], st[4]), writeable=False)
    m, kk = groups[0][0].shape[2:]
    if m <= kk:
        return sum(shifted(np.matmul(w.reshape(-1, kk), x).reshape(len(x), *w.shape[:3], -1))
                   .sum(axis=(1, 2)) for w, x in groups)
    cols = np.empty((len(groups[0][1]), sum(w[..., 0, 0].size for w, _ in groups) * kk, span))
    t = 0
    for w, x in groups:  # one copy of each group's shifted views into its rows of cols
        v = shifted(np.broadcast_to(x[:, None, None], (len(x), *w.shape[:2], *x.shape[1:])))
        cols[:, t:t + v[0, ..., 0].size].reshape(v.shape)[...] = v
        t += v[0, ..., 0].size
    w2 = np.concatenate([w.transpose(2, 0, 1, 3).reshape(m, -1) for w, _ in groups], axis=1)
    return np.matmul(w2, cols)


def _corr(xb: np.ndarray, w: np.ndarray, oh: int, ow: int, batch: bool,
          base: int = 0) -> np.ndarray:
    """Correlation of parts xb with w [M, C, k, k] -> [N, M, oh, ow]: tap (a, b)
    reads part (a % s, b % s) at (a // s, b // s) past flat offset `base`."""
    s, _, c, n, hq, wq = xb.shape
    nb, taps, ks = (1 if batch else n), w.transpose(2, 3, 0, 1), range(min(s, w.shape[2]))
    # [s, s, nb, C, L]: a row per sample, or the batch end to end; rows of width wq
    # are computed in full and the columns past ow dropped
    flat = xb.reshape(s, s, c, nb, -1).transpose(0, 1, 3, 2, 4)[..., base:]
    y = _shifted_gemm([(taps[a::s, b::s], flat[a, b]) for a in ks for b in ks],
                      wq, (n - nb) * hq * wq + (oh - 1) * wq + ow)
    step = hq * wq * y.itemsize if batch else y.strides[0]
    return as_strided(y, (n, w.shape[0], oh, ow), (step, y.strides[1], wq * y.itemsize, y.itemsize))


def _corr_adj(y: np.ndarray, w: np.ndarray, s: int, pad: int, h: int, wd: int,
              batch: bool) -> np.ndarray:
    """Adjoint of _corr in its input, [N, M, oh, ow] -> [N, C, h, wd]. Padded
    pixel (u*s + a, v*s + b) gathers taps a + i*s, b + j*s from y[u - i, v - j]:
    each part is a stride-1 correlation of zero-extended y with flipped taps."""
    k = w.shape[2]
    rows, cols = _parts(s, k, pad, h), _parts(s, k, pad, wd)
    top = max([0] + [(k - 1 - p) // s - u0 for p, u0, _, _ in rows + cols])
    yb = np.pad(y.transpose(1, 0, 2, 3)[None, None], [(0, 0)] * 4 + [
        (top, max([0] + [u0 + m - y.shape[d] for _, u0, _, m in ps]))
        for d, ps in ((2, rows), (3, cols))])
    flipped = w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
    out = np.zeros((len(y), w.shape[1], h, wd))
    for a, u0, r0, nu in rows:
        for b, v0, c0, nv in cols:
            wp = flipped[:, :, (k - 1 - a) % s::s, (k - 1 - b) % s::s]
            base = (top + u0 - wp.shape[2] + 1) * yb.shape[-1] + top + v0 - wp.shape[3] + 1
            out[:, :, r0::s, c0::s] = _corr(yb, wp, nu, nv, batch, base)
    return out


def _corr_wgrad(xb: np.ndarray, g: np.ndarray, k: int) -> np.ndarray:
    """Gradient in w of <_corr(xb, w), g>: one GEMM per tap over the batch,
    with g zero-extended to the part grid so the dropped columns add nothing."""
    s, _, c, n, hq, wq = xb.shape
    co, oh, ow = g.shape[1:]
    gf = np.pad(g.transpose(1, 0, 2, 3), [(0, 0), (0, 0), (0, hq - oh), (0, wq - ow)])
    gf, xf = gf.reshape(co, -1)[:, :(n - 1) * hq * wq + (oh - 1) * wq + ow], xb.reshape(s, s, c, -1)
    return np.stack([gf @ xf[a % s, b % s, :, a // s * wq + b // s:][:, :gf.shape[1]].T
                     for a in range(k) for b in range(k)], axis=-1).reshape(co, c, k, k)


def _conv(x, weight, bias, stride: int, pad: int, transposed: bool) -> Tensor:
    name = "conv_transpose2d" if transposed else "conv2d"
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    if x.ndim != 4:
        raise ShapeError(f"{name}: input must be [N,C,H,W], got {x.shape}")
    if weight.ndim != 4:
        raise ShapeError(f"{name}: weight must be 4-d, got {weight.shape}")
    cin, cout = weight.shape[int(not transposed)], weight.shape[int(transposed)]
    if weight.shape[2] != weight.shape[3]:
        raise ShapeError(f"{name}: kernel must be square, got {weight.shape[2:]}")
    if weight.shape[2] % 2 != 1 and not transposed:
        raise ShapeError(f"{name}: kernel size {weight.shape[2]} must be odd")
    if bias.ndim != 1 or bias.shape[0] != cout:
        raise ShapeError(f"{name}: bias shape {bias.shape} does not match {cout} output channels")
    if x.shape[1] != cin:
        raise ShapeError(f"{name}: input has {x.shape[1]} channels, weight expects {cin}")
    if stride < 1 or pad < 0:
        raise ShapeError(f"{name}: need stride >= 1 and padding >= 0, got {stride}, {pad}")
    h, w, k = x.shape[2], x.shape[3], weight.shape[2]
    oh, ow = (((h - 1) * stride - 2 * pad + k, (w - 1) * stride - 2 * pad + k) if transposed
              else ((h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1))
    if oh < 1 or ow < 1:
        raise ShapeError(f"{name}: output size ({oh}, {ow}) is empty for input ({h}, {w}), "
                         f"kernel {k}, stride {stride}, padding {pad}")
    xb = None if transposed else _phases(x.data, stride, k, pad)
    y = (_corr_adj(x.data, weight.data, stride, pad, oh, ow, batch=False) if transposed
         else _corr(xb, weight.data, oh, ow, batch=False)) + bias.data[None, :, None, None]

    def vjp(g):
        # the correlation runs from `parts` to `out`: x to y, or g to x if transposed
        parts, out = (_phases(g, stride, k, pad), x.data) if transposed else (xb, g)
        gx = gw = gb = None
        if x.requires_grad:
            gx = (_corr(parts, weight.data, h, w, batch=True) if transposed
                  else _corr_adj(g, weight.data, stride, pad, h, w, batch=True))
        if weight.requires_grad:
            gw = _corr_wgrad(parts, out, k)
        if bias.requires_grad:
            gb = g.sum(axis=(0, 2, 3))
        return gx, gw, gb

    return _record(y, (x, weight, bias), vjp)


def conv2d(x, weight, bias, stride: int = 1, pad: int = 0) -> Tensor:
    """2-d cross-correlation with zero padding.

    x [N,C_in,H,W]; weight [C_out,C_in,k,k]; bias [C_out] -> [N,C_out,oh,ow].
    """
    return _conv(x, weight, bias, stride, pad, transposed=False)


def conv_transpose2d(x, weight, bias, stride: int = 1, pad: int = 0) -> Tensor:
    """Transposed convolution: the adjoint of conv2d in its input.

    x [N,C_in,H,W]; weight [C_in,C_out,k,k]; bias [C_out]. Output
    [N,C_out,oh,ow] with oh = (H-1)*stride - 2*pad + k, ow likewise.
    """
    return _conv(x, weight, bias, stride, pad, transposed=True)
