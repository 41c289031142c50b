"""Span arithmetic and wrapping of the benchmark's tracer."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import tracing
from tracing import Span, Tracer, covered, install, layer_metrics, self_times


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 5.0) == 0.0
    assert covered([(1.0, 2.0), (3.0, 4.0)], 0.0, 5.0) == 2.0
    assert covered([(1.0, 3.0), (2.0, 4.0), (2.5, 3.5)], 0.0, 5.0) == 3.0
    assert covered([(-1.0, 2.0), (4.0, 9.0)], 0.0, 5.0) == 3.0


def test_self_time_on_a_hand_built_tree_with_overlapping_workers():
    # cli.eval [0, 10] on the main thread; two pool workers run children at
    # once: [1, 4] on thread 2 and [3, 6] on thread 3; the first has its
    # own child [2, 3]. Overlap [3, 4] counts once against the parent.
    spans = [
        Span(1, 0, "cli.eval", 1, 0.0, 10.0),
        Span(2, 1, "metrics.evaluate_video", 2, 1.0, 4.0),
        Span(3, 1, "metrics.evaluate_video", 3, 3.0, 6.0),
        Span(4, 2, "network.predict_flow", 2, 2.0, 3.0),
    ]
    assert self_times(spans) == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}
    m = layer_metrics(spans, units=2)
    assert m["cli.eval.self_ms"] == pytest.approx(2500.0)
    assert m["cli.self_ms"] == pytest.approx(2500.0)
    assert m["metrics.self_ms"] == pytest.approx(2500.0)
    assert m["metrics.evaluate_video.ms"] == pytest.approx(3000.0)
    assert m["network.self_ms"] == pytest.approx(500.0)
    assert m["trace.spans"] == 2.0


def test_layer_metrics_split_tensor_ops_and_count_frames_per_loss():
    spans = [
        Span(1, 0, "losses.loss_total", 1, 0.0, 10.0),
        Span(2, 1, "network.predict_flow", 1, 0.0, 4.0, n=48.0),
        Span(3, 2, "tensor.conv2d", 1, 0.0, 1.0, n=2e9),
        Span(4, 2, "tensor.leaky_relu", 1, 1.0, 2.0),
        Span(5, 2, "tensor.add", 1, 2.0, 3.0),
        Span(6, 0, "tensor.backward", 1, 10.0, 14.0),
        Span(7, 6, "tensor.conv2d.vjp", 1, 10.0, 12.0),
        Span(8, 6, "tensor.leaky_relu.vjp", 1, 12.0, 13.0),
        Span(9, 0, "network.predict_flow", 1, 14.0, 15.0, n=2.0),
    ]
    m = layer_metrics(spans, units=1)
    assert m["tensor.conv2d.fwd_ms"] == 1000.0
    assert m["tensor.conv2d.vjp_ms"] == 2000.0
    assert m["tensor.conv2d.calls"] == 1
    assert m["tensor.leaky_relu.fwd_ms"] == 1000.0
    assert m["tensor.other.fwd_ms"] == 1000.0
    assert m["tensor.other.vjp_ms"] == 1000.0
    assert m["tensor.backward_ms"] == 4000.0
    assert m["tensor.conv.gflop"] == 2.0
    assert m["network.predict_flow.frames_encoded"] == 50.0
    assert m["network.frames_encoded_per_loss"] == 48.0
    assert m["tensor.self_ms"] == pytest.approx(1000.0 * (3 + 1 + 2 + 1))


def test_layer_metrics_reject_zero_units():
    with pytest.raises(ValueError):
        layer_metrics([], units=0)


def test_worker_spans_parent_to_the_submitting_span():
    tracer = Tracer()

    def worker(k):
        return tracer.call("metrics.dice", lambda: threading.get_ident(), (), {})

    def submit():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(worker, range(4)))

    tracer.call("cli.eval", submit, (), {})
    root = next(s for s in tracer.spans if s.name == "cli.eval")
    kids = [s for s in tracer.spans if s.name == "metrics.dice"]
    assert len(kids) == 4
    assert all(s.parent == root.sid for s in kids)
    assert root.parent == 0


def test_install_routes_calls_and_restore_puts_originals_back():
    from foal import cli, losses, network, tensor
    from foal.adapt import batch_loss  # noqa: F401  (module must be loaded)
    originals = (tensor.conv2d, network.predict_flow, cli.evaluate_video,
                 network.ParamSet.__dict__["clone"])
    cfg = network.NetConfig(input_size=(8, 8), encoder_channels=(2, 4))
    params = network.init_params(cfg, seed=0)
    rng = np.random.default_rng(0)
    a, b = rng.uniform(0, 255, (2, 2, 8, 8))
    want, _ = losses.loss_total(cfg, params, a, b)

    tracer = Tracer()
    restore = install(tracer)
    try:
        got, _ = losses.loss_total(cfg, params.clone(), a, b)
        got.backward()
        assert cli.evaluate_video is not originals[2]
    finally:
        restore()
    assert (tensor.conv2d, network.predict_flow, cli.evaluate_video,
            network.ParamSet.__dict__["clone"]) == originals
    assert got.item() == want.item()
    names = {s.name for s in tracer.spans}
    assert {"losses.loss_total", "network.predict_flow", "tensor.conv2d",
            "tensor.conv2d.vjp", "tensor.backward", "losses.warp_image.vjp",
            "network.clone"} <= names
    m = layer_metrics(tracer.spans, units=1)
    # two predict_flow calls per loss, each encoding both 2-frame stacks
    assert m["network.frames_encoded_per_loss"] == 8.0
    assert m["tensor.conv.gflop"] > 0


def test_every_target_exists():
    import foal.cli  # noqa: F401  (loads every layer)
    import sys
    for modname, attr, _, _ in tracing.TARGETS:
        obj = sys.modules[modname]
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj)
