"""Flow network: init statistics, shape contract, weight sharing, gradients."""

import numpy as np
import pytest

from foal import network as N
from foal import tensor as T
from foal.network import NetConfig, ParamSet
from foal.tensor import Tensor

from test_tensor import finite_diff, rel_err


SMALL = NetConfig(input_size=(16, 16), encoder_channels=(4, 8))


def rand_frames(rng, cfg, n=1):
    return rng.uniform(0.0, 255.0, size=(n, *cfg.input_size))


class TestConfig:
    def test_default_architecture_layer_plan(self):
        cfg = NetConfig()
        plan = {name: shape for name, _, shape in N._layer_plan(cfg)}
        assert plan["enc1"] == (16, 1, 3, 3)
        assert plan["enc2"] == (32, 16, 3, 3)
        assert plan["enc3"] == (64, 32, 3, 3)
        assert plan["fuse"] == (64, 128, 3, 3)
        assert plan["up1"] == (64, 32, 4, 4)
        assert plan["up2"] == (32, 16, 4, 4)
        assert plan["up3"] == (16, 8, 4, 4)
        assert plan["head"] == (2, 8, 3, 3)

    def test_indivisible_input_size_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            NetConfig(input_size=(20, 20), encoder_channels=(4, 8, 16))

    def test_odd_first_width_rejected(self):
        with pytest.raises(ValueError, match="even"):
            NetConfig(encoder_channels=(5, 8))


class TestInit:
    def test_same_seed_same_params(self):
        a = N.init_params(SMALL, seed=3)
        b = N.init_params(SMALL, seed=3)
        assert a.names() == b.names()
        for n in a.names():
            assert np.array_equal(a[n].data, b[n].data)

    def test_different_seed_differs(self):
        a = N.init_params(SMALL, seed=3)
        b = N.init_params(SMALL, seed=4)
        assert any(not np.array_equal(a[n].data, b[n].data) for n in a.names())

    def test_biases_zero_weights_bounded(self):
        params = N.init_params(NetConfig(), seed=0)
        for name, _, wshape in N._layer_plan(NetConfig()):
            w = params[f"{name}.weight"].data
            b = params[f"{name}.bias"].data
            assert np.all(b == 0.0)
            kind_in = wshape[1] if name.startswith(("enc", "fuse", "head")) else wshape[0]
            bound = 1.0 / np.sqrt(kind_in * wshape[2] * wshape[3])
            assert np.all(np.abs(w) <= bound)
            assert w.shape == wshape

    def test_uniform_moments_plausible(self):
        # mean ~ 0 and var ~ b^2/3 within 4 sigma for the largest layer
        params = N.init_params(NetConfig(), seed=11)
        w = params["fuse.weight"].data.ravel()
        b = 1.0 / np.sqrt(128 * 9)
        n = w.size
        assert abs(w.mean()) < 4 * b / np.sqrt(3 * n)
        var = w.var()
        expect = b * b / 3
        # var of the sample variance of U(-b,b) is ~ 4/45 b^4 / n
        assert abs(var - expect) < 4 * np.sqrt(4 / 45) * b * b / np.sqrt(n)


class TestForward:
    def test_output_shape_single_and_batch(self):
        rng = np.random.default_rng(0)
        params = N.init_params(SMALL, seed=1)
        with pytest.raises(T.ShapeError, match=r"\[N,H,W\], got \(16, 16\)"):
            N.predict_flow(SMALL, params, rand_frames(rng, SMALL)[0],
                           rand_frames(rng, SMALL)[0])

        flow_b = N.predict_flow(SMALL, params, rand_frames(rng, SMALL, 5),
                                rand_frames(rng, SMALL, 5))
        assert flow_b.vx.shape == (5, 16, 16)

    def test_batch_matches_per_pair(self):
        # bitwise: evaluation runs single pairs, adaptation 24-pair batches
        for cfg, n in ((SMALL, 3), (NetConfig(), 24)):
            rng = np.random.default_rng(5)
            params = N.init_params(cfg, seed=2)
            src = rand_frames(rng, cfg, n)
            ref = rand_frames(rng, cfg, n)
            joint = N.predict_flow(cfg, params, src, ref)
            for i in sorted({0, 1, 2, n - 1}):
                one = N.predict_flow(cfg, params, src[i:i + 1], ref[i:i + 1])
                assert np.array_equal(joint.vx.data[i:i + 1], one.vx.data)
                assert np.array_equal(joint.vy.data[i:i + 1], one.vy.data)

    def test_argument_order_matters(self):
        rng = np.random.default_rng(6)
        params = N.init_params(SMALL, seed=3)
        a, b = rand_frames(rng, SMALL), rand_frames(rng, SMALL)
        fwd = N.predict_flow(SMALL, params, a, b)
        bwd = N.predict_flow(SMALL, params, b, a)
        assert not np.allclose(fwd.vx.data, bwd.vx.data)

    def test_zero_weights_give_zero_flow(self):
        params = N.init_params(SMALL, seed=0)
        zeroed = ParamSet.from_arrays(
            {n: np.zeros_like(a) for n, a in params.to_arrays().items()})
        rng = np.random.default_rng(7)
        flow = N.predict_flow(SMALL, zeroed, rand_frames(rng, SMALL),
                              rand_frames(rng, SMALL))
        assert np.all(flow.vx.data == 0.0)
        assert np.all(flow.vy.data == 0.0)

    def test_wrong_spatial_size_rejected(self):
        params = N.init_params(SMALL, seed=0)
        with pytest.raises(T.ShapeError, match="input_size"):
            N.predict_flow(SMALL, params, np.zeros((1, 8, 8)), np.zeros((1, 8, 8)))
        with pytest.raises(T.ShapeError, match=r"\[N,H,W\], got \(16, 16\)"):
            N.encode(SMALL, params, np.zeros((16, 16)))

    def test_batch_mismatch_rejected(self):
        rng = np.random.default_rng(12)
        params = N.init_params(SMALL, seed=0)
        with pytest.raises(T.ShapeError, match="batch 2 != reference batch 3"):
            N.predict_flow(SMALL, params, rand_frames(rng, SMALL, 2),
                           rand_frames(rng, SMALL, 3))

    def test_deterministic_forward(self):
        rng = np.random.default_rng(8)
        params = N.init_params(SMALL, seed=4)
        src, ref = rand_frames(rng, SMALL), rand_frames(rng, SMALL)
        f1 = N.predict_flow(SMALL, params, src, ref)
        f2 = N.predict_flow(SMALL, params, src, ref)
        assert np.array_equal(f1.vx.data, f2.vx.data)


class TestSharedEncoderGradients:
    def test_encoder_grad_sums_both_branches(self):
        """The shared encoder weight must accumulate gradient from the source
        branch and the reference branch; check against two single-branch
        passes where the other branch is blocked from the tape."""
        cfg = SMALL
        rng = np.random.default_rng(9)
        src, ref = rand_frames(rng, cfg), rand_frames(rng, cfg)

        def loss_from(params):
            flow = N.predict_flow(cfg, params, src, ref)
            return T.mean(T.add(T.square(flow.vx), T.square(flow.vy)))

        params = N.init_params(cfg, seed=5)
        loss_from(params).backward()
        joint = {n: params[n].grad.copy() for n in params.names()
                 if n.startswith("enc")}

        # manual two-pass: encode branches separately, stitching the graph so
        # only one branch's encoder ops require grad at a time
        def branch_grads(active_source: bool):
            p = N.init_params(cfg, seed=5)
            if active_source:
                with T.no_grad():
                    fr = N.encode(cfg, p, ref)
                fs = N.encode(cfg, p, src)
            else:
                with T.no_grad():
                    fs = N.encode(cfg, p, src)
                fr = N.encode(cfg, p, ref)
            h = T.concat_channels([fs, fr])
            h = T.leaky_relu(T.conv2d(h, Tensor(p["fuse.weight"].data),
                                      Tensor(p["fuse.bias"].data), 1, 1),
                             N.LEAKY_SLOPE)
            for i in (1, 2):
                h = T.leaky_relu(T.conv_transpose2d(
                    h, Tensor(p[f"up{i}.weight"].data),
                    Tensor(p[f"up{i}.bias"].data), 2, 1), N.LEAKY_SLOPE)
            out = T.conv2d(h, Tensor(p["head.weight"].data),
                           Tensor(p["head.bias"].data), 1, 1)
            vx, vy = T.take_channel(out, 0), T.take_channel(out, 1)
            T.mean(T.add(T.square(vx), T.square(vy))).backward()
            return {n: (p[n].grad.copy() if p[n].grad is not None
                        else np.zeros_like(p[n].data))
                    for n in p.names() if n.startswith("enc")}

        g_src = branch_grads(True)
        g_ref = branch_grads(False)
        # mean over 2 output channels == mean over (vx, vy) halves
        for n in joint:
            assert np.allclose(joint[n], g_src[n] + g_ref[n],
                               rtol=1e-10, atol=1e-12)

    def test_full_network_finite_difference(self):
        cfg = NetConfig(input_size=(8, 8), encoder_channels=(4, 4))
        rng = np.random.default_rng(10)
        src, ref = rand_frames(rng, cfg), rand_frames(rng, cfg)
        params = N.init_params(cfg, seed=6)

        def loss(p):
            flow = N.predict_flow(cfg, p, src, ref)
            return T.mean(T.add(T.square(flow.vx), T.square(flow.vy)))

        loss(params).backward()
        arrays = params.to_arrays()
        for name in ("enc1.weight", "enc2.bias", "fuse.weight",
                     "up1.weight", "up2.bias", "head.weight"):
            def f(arr, name=name):
                trial = {k: v.copy() for k, v in arrays.items()}
                trial[name] = arr
                with T.no_grad():
                    return loss(ParamSet.from_arrays(trial)).item()

            fd = finite_diff(f, arrays[name].copy(), h=1e-5)
            assert rel_err(params[name].grad, fd) < 1e-3, name


class TestClone:
    def test_clone_is_isolated(self):
        params = N.init_params(SMALL, seed=7)
        twin = params.clone()
        twin["enc1.weight"].data += 1.0
        assert not np.array_equal(params["enc1.weight"].data,
                                  twin["enc1.weight"].data)
        rng = np.random.default_rng(11)
        src, ref = rand_frames(rng, SMALL), rand_frames(rng, SMALL)
        flow = N.predict_flow(SMALL, twin, src, ref)
        T.mean(T.square(flow.vx)).backward()
        assert all(params[n].grad is None for n in params.names())
