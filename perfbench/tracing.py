"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each foal layer from outside the
package: it swaps module attributes (and every `from ... import` alias of
them inside foal) for timing wrappers, and puts the originals back when the
traced phase ends. Tape ops additionally get their recorded `_vjp` closure
wrapped, so backward time is split per op. Nothing inside the package knows
it is being traced, and the untraced run pays nothing.

A span is (id, parent id, name, thread, start, end, n); `n` carries a count
measured at that boundary (FLOPs computed from shapes, frames encoded,
bytes read). A layer's self time is its span's duration minus the part of
that interval covered by the union of its child spans, so two worker
threads running children at the same time are not subtracted twice.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("tensor", "network", "losses", "optim", "adapt", "metrics", "data", "cli")

# (module, attribute, span name, kind). kind "op" also wraps the output's
# vjp; "method" patches a class attribute. foal.config and foal.gradcheck
# are deliberately absent: one is a millisecond parse, the other a test tool.
TARGETS = [
    *[("foal.tensor", op, f"tensor.{op}", "op") for op in (
        "add", "sub", "mul", "scalar_mul", "square", "mean", "total",
        "reshape", "leaky_relu", "concat_channels", "take_channel",
        "slice_hw", "conv2d", "conv_transpose2d")],
    ("foal.tensor", "backward", "tensor.backward", "fn"),
    ("foal.network", "predict_flow", "network.predict_flow", "fn"),
    ("foal.network", "init_params", "network.init_params", "fn"),
    ("foal.network", "ParamSet.clone", "network.clone", "method"),
    ("foal.losses", "loss_total", "losses.loss_total", "fn"),
    ("foal.losses", "warp_image", "losses.warp_image", "op"),
    ("foal.losses", "loss_mse", "losses.loss_mse", "fn"),
    ("foal.losses", "loss_smooth", "losses.loss_smooth", "fn"),
    ("foal.losses", "loss_consistency", "losses.loss_consistency", "fn"),
    ("foal.optim", "Adam.step", "optim.adam.step", "method"),
    ("foal.optim", "SGD.step", "optim.sgd.step", "method"),
    ("foal.adapt", "online_adapt", "adapt.online_adapt", "fn"),
    ("foal.adapt", "train_baseline", "adapt.train_baseline", "fn"),
    ("foal.adapt", "meta_train", "adapt.meta_train", "fn"),
    ("foal.adapt", "meta_train_step", "adapt.meta_train_step", "fn"),
    ("foal.metrics", "evaluate_video", "metrics.evaluate_video", "fn"),
    ("foal.metrics", "warp_mask", "metrics.warp_mask", "fn"),
    ("foal.metrics", "dice", "metrics.dice", "fn"),
    ("foal.metrics", "hausdorff", "metrics.hausdorff", "fn"),
    ("foal.data", "load_entry", "data.load_entry", "fn"),
    ("foal.data", "read_video", "data.read_video", "fn"),
    ("foal.data", "read_mask", "data.read_mask", "fn"),
    ("foal.data", "read_checkpoint", "data.read_checkpoint", "fn"),
    ("foal.data", "write_checkpoint", "data.write_checkpoint", "fn"),
    ("foal.data", "load_manifest", "data.load_manifest", "fn"),
    ("foal.cli", "main", "cli.main", "fn"),
    ("foal.cli", "cmd_eval", "cli.eval", "fn"),
]


@dataclass
class Span:
    sid: int
    parent: int
    name: str
    thread: int
    start: float
    end: float = 0.0
    n: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _shape(x) -> tuple:
    return tuple(getattr(x, "shape", ()))


def _prod(xs) -> int:
    return math.prod(int(v) for v in xs)


def _conv2d_flop(args, out) -> float:
    # weight [Cout, Cin, k, k]: each output element is a Cin*k*k dot product
    w = _shape(args[1])
    return 2.0 * _prod(_shape(out)) * w[1] * w[2] * w[3]


def _conv_transpose2d_flop(args, out) -> float:
    # weight [Cin, Cout, k, k]: each input element scatters Cout*k*k products
    w = _shape(args[1])
    return 2.0 * _prod(_shape(args[0])) * w[1] * w[2] * w[3]


def _frames_encoded(args, out) -> float:
    # predict_flow(cfg, params, source, reference) encodes both stacks
    src = _shape(args[2])
    return 2.0 * (src[0] if len(src) == 3 else 1)


def _entry_bytes(args, out) -> float:
    entry = args[0]
    return float(sum(os.path.getsize(p) for p in [entry.video_path, *entry.mask_paths]))


COUNTERS = {
    "tensor.conv2d": _conv2d_flop,
    "tensor.conv_transpose2d": _conv_transpose2d_flop,
    "network.predict_flow": _frames_encoded,
    "data.load_entry": _entry_bytes,
}


class Tracer:
    """Collects spans in memory; safe to call from several threads.

    A thread with no open span of its own (a worker of the eval thread pool)
    parents its spans to the innermost span open on the thread that created
    the tracer, which is the thread that submitted the work.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            home = threading.get_ident() == self._home
            stack = self._local.stack = self._home_stack if home else []
        return stack

    def _parent(self, stack: list[Span]) -> int:
        if stack:
            return stack[-1].sid
        try:
            return self._home_stack[-1].sid
        except IndexError:
            return 0

    def call(self, name: str, fn, args, kwargs, counter=None):
        stack = self._stack()
        span = Span(next(self._ids), self._parent(stack), name,
                    threading.get_ident(), time.perf_counter())
        stack.append(span)
        try:
            out = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if counter is not None:
            span.n = counter(args, out)
        return out


def _wrap(tracer: Tracer, name: str, kind: str, fn):
    counter = COUNTERS.get(name)
    vjp_name = name + ".vjp"

    if kind == "op":
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = tracer.call(name, fn, args, kwargs, counter)
            vjp = out._vjp
            if vjp is not None:
                out._vjp = lambda g: tracer.call(vjp_name, vjp, (g,), {})
            return out
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, counter)
    return wrapper


def install(tracer: Tracer):
    """Route every target through `tracer`; returns a function that undoes it."""
    foal_modules = [m for n, m in list(sys.modules.items())
                    if m is not None and (n == "foal" or n.startswith("foal."))]
    undo: list[tuple[object, str, object]] = []
    for modname, attr, name, kind in TARGETS:
        module = sys.modules[modname]
        if kind == "method":
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            undo.append((cls, meth, original))
            setattr(cls, meth, _wrap(tracer, name, kind, original))
            continue
        original = getattr(module, attr)
        wrapper = _wrap(tracer, name, kind, original)
        for mod in foal_modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def restore():
        for obj, key, original in reversed(undo):
            setattr(obj, key, original)
    return restore


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for s, e in sorted(intervals):
        s, e = max(s, end), min(e, hi)
        if e > s:
            total += e - s
            end = e
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sp in spans:
        children[sp.parent].append((sp.start, sp.end))
    return {sp.sid: (sp.end - sp.start) - covered(children[sp.sid], sp.start, sp.end)
            for sp in spans}


# tape ops reported on their own; every other tensor op is "other"
_OWN_OPS = ("conv2d", "conv_transpose2d", "leaky_relu")


def layer_metrics(spans, units: int) -> dict[str, float]:
    """Per-layer metrics, each per unit of work (a video or a train cycle).

    Times are in ms. `_ms` alone is a span's whole duration, `self_ms` its
    self time. Names absent from the run read 0.
    """
    if units < 1:
        raise ValueError("layer metrics need at least one traced unit")
    selfs = self_times(spans)
    dur = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    count = defaultdict(float)
    by_id = {sp.sid: sp for sp in spans}
    layer_self = defaultdict(float)
    frames_in_loss = 0.0
    for sp in spans:
        dur[sp.name] += sp.end - sp.start
        own[sp.name] += selfs[sp.sid]
        calls[sp.name] += 1
        count[sp.name] += sp.n
        layer_self[sp.layer] += selfs[sp.sid]
        if sp.name == "network.predict_flow":
            parent = by_id.get(sp.parent)
            if parent is not None and parent.name == "losses.loss_total":
                frames_in_loss += sp.n

    def ms(name):
        return dur[name] * 1e3 / units

    def self_ms(name):
        return own[name] * 1e3 / units

    def per(mapping, name):
        return mapping[name] / units

    tensor_ops = {sp.name for sp in spans
                  if sp.layer == "tensor" and sp.name != "tensor.backward"}
    other_fwd = [n for n in tensor_ops if not n.endswith(".vjp")
                 and n.split(".")[1] not in _OWN_OPS]
    other_vjp = [n for n in tensor_ops if n.endswith(".vjp")
                 and n.split(".")[1] not in _OWN_OPS[:2]]
    out = {}
    for op in _OWN_OPS[:2]:
        out[f"tensor.{op}.fwd_ms"] = ms(f"tensor.{op}")
        out[f"tensor.{op}.vjp_ms"] = ms(f"tensor.{op}.vjp")
        out[f"tensor.{op}.calls"] = per(calls, f"tensor.{op}")
    out["tensor.leaky_relu.fwd_ms"] = ms("tensor.leaky_relu")
    out["tensor.other.fwd_ms"] = sum(ms(n) for n in other_fwd)
    out["tensor.other.vjp_ms"] = sum(ms(n) for n in other_vjp)
    out["tensor.backward_ms"] = ms("tensor.backward")
    out["tensor.conv.gflop"] = (count["tensor.conv2d"]
                                + count["tensor.conv_transpose2d"]) / 1e9 / units
    out["network.predict_flow.ms"] = ms("network.predict_flow")
    out["network.predict_flow.calls"] = per(calls, "network.predict_flow")
    out["network.predict_flow.frames_encoded"] = per(count, "network.predict_flow")
    n_loss = calls["losses.loss_total"]
    out["network.frames_encoded_per_loss"] = frames_in_loss / n_loss if n_loss else 0.0
    out["network.clone_ms"] = ms("network.clone")
    out["losses.loss_total.ms"] = ms("losses.loss_total")
    out["losses.warp_image.ms"] = ms("losses.warp_image")
    out["losses.warp_image.vjp_ms"] = ms("losses.warp_image.vjp")
    out["losses.warp_image.calls"] = per(calls, "losses.warp_image")
    out["losses.loss_smooth.ms"] = ms("losses.loss_smooth")
    out["losses.loss_consistency.ms"] = ms("losses.loss_consistency")
    out["optim.adam.step_ms"] = ms("optim.adam.step")
    out["optim.sgd.step_ms"] = ms("optim.sgd.step")
    out["adapt.online_adapt.ms"] = ms("adapt.online_adapt")
    out["adapt.online_adapt.self_ms"] = self_ms("adapt.online_adapt")
    out["adapt.meta_train_step.self_ms"] = self_ms("adapt.meta_train_step")
    out["metrics.evaluate_video.ms"] = ms("metrics.evaluate_video")
    out["metrics.warp_mask.ms"] = ms("metrics.warp_mask")
    out["metrics.hausdorff.ms"] = ms("metrics.hausdorff")
    out["data.load_entry.ms"] = ms("data.load_entry")
    out["data.load_entry.bytes"] = per(count, "data.load_entry")
    out["data.read_checkpoint.ms"] = ms("data.read_checkpoint")
    out["data.write_checkpoint.ms"] = ms("data.write_checkpoint")
    out["cli.eval.self_ms"] = self_ms("cli.eval")
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = layer_self[layer] * 1e3 / units
    out["trace.spans"] = len(spans) / units
    return out


def dump(spans, path, layout: str) -> None:
    """Write the run's thread layout and its spans, as JSON rows
    [id, parent, name, thread, start_s, end_s, n]."""
    rows = [[sp.sid, sp.parent, sp.name, sp.thread, sp.start, sp.end, sp.n]
            for sp in spans]
    with open(path, "w") as fh:
        json.dump({"layout": layout, "columns": ["id", "parent", "name", "thread",
                                                 "start_s", "end_s", "n"],
                   "spans": rows}, fh)
