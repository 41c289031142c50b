"""Warping and loss terms against hand computations and finite differences."""

import numpy as np
import pytest

from foal import losses as L
from foal import network as N
from foal import tensor as T
from foal.losses import LossReport, LossWeights
from foal.network import MotionField, NetConfig
from foal.tensor import Tensor

from test_tensor import finite_diff, rel_err


def field(vx, vy, requires_grad=False):
    return MotionField(Tensor(np.asarray(vx, dtype=float), requires_grad),
                       Tensor(np.asarray(vy, dtype=float), requires_grad))


def zero_field(shape):
    return field(np.zeros(shape), np.zeros(shape))


def smooth_oracle(vx, vy):
    s = 0.0
    for c in (vx, vy):
        s += ((c[..., :, 1:] - c[..., :, :-1]) ** 2).sum()
        s += ((c[..., 1:, :] - c[..., :-1, :]) ** 2).sum()
    return s / vx.size


class TestWarp:
    def test_zero_flow_is_identity(self):
        rng = np.random.default_rng(0)
        img = rng.normal(size=(1, 6, 7))
        out = L.warp_image(img, zero_field((1, 6, 7)))
        assert np.array_equal(out.data, img)

    def test_unbatched_image_rejected(self):
        # one [H,W] image is a batch of one, [1,H,W]
        with pytest.raises(T.ShapeError, match=r"\[N,H,W\], got \(6, 7\)"):
            L.warp_image(np.zeros((6, 7)), zero_field((6, 7)))

    def test_unit_shift_right_with_border_clamp(self):
        img = np.arange(12.0).reshape(1, 3, 4)
        out = L.warp_image(img, field(np.ones((1, 3, 4)), np.zeros((1, 3, 4))))
        want = np.concatenate([img[:, :, 1:], img[:, :, -1:]], axis=2)
        assert np.array_equal(out.data, want)

    def test_half_pixel_shift_averages_neighbors(self):
        img = np.array([[[0.0, 2.0, 4.0, 6.0]]])
        out = L.warp_image(img, field(np.full((1, 1, 4), 0.5), np.zeros((1, 1, 4))))
        assert np.allclose(out.data[0, 0, :3], [1.0, 3.0, 5.0])
        assert out.data[0, 0, 3] == 6.0

    def test_far_out_of_range_clamps_to_border(self):
        img = np.arange(6.0).reshape(1, 2, 3)
        out = L.warp_image(img, field(np.full((1, 2, 3), 100.0),
                                      np.full((1, 2, 3), -100.0)))
        assert np.all(out.data == img[0, 0, 2])

    def test_vertical_matches_transposed_horizontal(self):
        rng = np.random.default_rng(1)
        img = rng.normal(size=(1, 5, 5))
        v = rng.uniform(-1.2, 1.2, size=(1, 5, 5))
        horiz = L.warp_image(img, field(v, np.zeros_like(v))).data
        vert = L.warp_image(img.transpose(0, 2, 1),
                            field(np.zeros_like(v), v.transpose(0, 2, 1))).data
        assert np.allclose(horiz, vert.transpose(0, 2, 1), atol=1e-14)

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(2)
        imgs = rng.normal(size=(3, 4, 4))
        vx = rng.uniform(-1, 1, size=(3, 4, 4))
        vy = rng.uniform(-1, 1, size=(3, 4, 4))
        joint = L.warp_image(imgs, field(vx, vy)).data
        for i in range(3):
            one = L.warp_image(imgs[i:i + 1], field(vx[i:i + 1], vy[i:i + 1])).data
            assert np.array_equal(joint[i:i + 1], one)

    def test_grad_wrt_image_finite_difference(self):
        rng = np.random.default_rng(3)
        img0 = rng.normal(size=(1, 5, 6))
        vx = rng.uniform(-1.3, 1.3, size=(1, 5, 6))
        vy = rng.uniform(-1.3, 1.3, size=(1, 5, 6))
        fl = field(vx, vy)

        img = Tensor(img0.copy(), requires_grad=True)
        T.mean(T.square(L.warp_image(img, fl))).backward()

        def f(a):
            with T.no_grad():
                return T.mean(T.square(L.warp_image(Tensor(a), fl))).item()

        assert rel_err(img.grad, finite_diff(f, img0.copy())) < 1e-4

    def test_grad_wrt_flow_finite_difference(self):
        rng = np.random.default_rng(4)
        img = rng.normal(size=(1, 6, 6))
        # keep sample coords strictly inside and off the bilinear kinks
        vx0 = rng.uniform(0.1, 0.9, size=(1, 6, 6)) * np.where(
            np.arange(6)[None, :] < 3, 1.0, -1.0)
        vy0 = rng.uniform(0.1, 0.9, size=(1, 6, 6)) * np.where(
            np.arange(6)[:, None] < 3, 1.0, -1.0)

        fl = field(vx0.copy(), vy0.copy(), requires_grad=True)
        T.mean(T.square(L.warp_image(img, fl))).backward()

        def make(which):
            def f(a):
                vx, vy = (a, vy0) if which == "x" else (vx0, a)
                with T.no_grad():
                    return T.mean(T.square(L.warp_image(img, field(vx, vy)))).item()
            return f

        assert rel_err(fl.vx.grad, finite_diff(make("x"), vx0.copy())) < 1e-4
        assert rel_err(fl.vy.grad, finite_diff(make("y"), vy0.copy())) < 1e-4

    def test_flow_grad_zero_where_sample_out_of_range(self):
        img = np.arange(16.0).reshape(1, 4, 4)
        vx = np.full((1, 4, 4), 10.0)
        fl = field(vx, np.zeros((1, 4, 4)), requires_grad=True)
        T.mean(L.warp_image(img, fl)).backward()
        assert np.all(fl.vx.grad == 0.0)


class TestMse:
    def test_identical_frames_zero(self):
        img = np.random.default_rng(5).normal(size=(4, 4))
        assert L.loss_mse(img, img.copy()).item() == 0.0

    def test_matches_numpy(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
        assert L.loss_mse(a, b).item() == pytest.approx(((a - b) ** 2).mean(), rel=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            L.loss_mse(np.zeros((2, 2)), np.zeros((2, 3)))


class TestSmooth:
    def test_constant_flow_scores_zero(self):
        fl = field(np.full((4, 5), 3.2), np.full((4, 5), -1.1))
        assert L.loss_smooth(fl).item() == 0.0

    def test_unit_ramp_scores_interior_fraction(self):
        h, w = 4, 6
        vx = np.tile(np.arange(float(w)), (h, 1))
        fl = field(vx, np.zeros((h, w)))
        assert L.loss_smooth(fl).item() == pytest.approx((w - 1) / w, rel=1e-15)

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(7)
        vx = rng.normal(size=(5, 7))
        vy = rng.normal(size=(5, 7))
        got = L.loss_smooth(field(vx, vy)).item()
        assert got == pytest.approx(smooth_oracle(vx, vy), rel=1e-13)

    def test_batched_matches_oracle(self):
        rng = np.random.default_rng(8)
        vx = rng.normal(size=(3, 4, 4))
        vy = rng.normal(size=(3, 4, 4))
        got = L.loss_smooth(field(vx, vy)).item()
        assert got == pytest.approx(smooth_oracle(vx, vy), rel=1e-13)

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(9)
        vx0 = rng.normal(size=(4, 5))
        vy0 = rng.normal(size=(4, 5))
        fl = field(vx0.copy(), vy0.copy(), requires_grad=True)
        L.loss_smooth(fl).backward()

        def f(a):
            with T.no_grad():
                return L.loss_smooth(field(a, vy0)).item()

        assert rel_err(fl.vx.grad, finite_diff(f, vx0.copy())) < 1e-4


class TestConsistency:
    def test_exact_inverses_score_zero(self):
        # constant unit right shift and its constant inverse; crop-free zone
        # is the whole image because warp clamps identical constants
        h, w = 5, 5
        fwd = field(np.ones((1, h, w)), np.zeros((1, h, w)))
        bwd = field(-np.ones((1, h, w)), np.zeros((1, h, w)))
        assert L.loss_consistency(fwd, bwd).item() == pytest.approx(0.0, abs=1e-15)

    def test_uncompensated_unit_shift_scores_one(self):
        h, w = 4, 4
        fwd = field(np.ones((1, h, w)), np.zeros((1, h, w)))
        bwd = zero_field((1, h, w))
        assert L.loss_consistency(fwd, bwd).item() == pytest.approx(1.0, rel=1e-15)

    def test_symmetry_in_argument_order(self):
        rng = np.random.default_rng(10)
        a = field(rng.uniform(-1, 1, (1, 6, 6)), rng.uniform(-1, 1, (1, 6, 6)))
        b = field(rng.uniform(-1, 1, (1, 6, 6)), rng.uniform(-1, 1, (1, 6, 6)))
        assert L.loss_consistency(a, b).item() == L.loss_consistency(b, a).item()

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(11)
        ax0 = rng.uniform(-0.8, 0.8, (1, 5, 5))
        ay0 = rng.uniform(-0.8, 0.8, (1, 5, 5))
        b = field(rng.uniform(-0.8, 0.8, (1, 5, 5)), rng.uniform(-0.8, 0.8, (1, 5, 5)))

        a = field(ax0.copy(), ay0.copy(), requires_grad=True)
        L.loss_consistency(a, b).backward()

        def f(arr):
            with T.no_grad():
                return L.loss_consistency(field(arr, ay0), b).item()

        assert rel_err(a.vx.grad, finite_diff(f, ax0.copy())) < 1e-4


def pair_loss(cfg, params, src, ref, weights=LossWeights()):
    """loss_total on pairs (i, N + i) of the stacked [src; ref] frames."""
    frames = np.concatenate([np.reshape(x, (-1, *cfg.input_size)) for x in (src, ref)])
    n = len(frames) // 2
    return L.loss_total(cfg, params, frames, [(i, n + i) for i in range(n)], weights)


def two_flow_loss(cfg, params, frames, pairs, w):
    """The loss as two predict_flow calls, each encoding both frame stacks."""
    src = frames[[a for a, _ in pairs]]
    ref = frames[[b for _, b in pairs]]
    fwd = N.predict_flow(cfg, params, src, ref)
    bwd = N.predict_flow(cfg, params, ref, src)
    return loss_terms(fwd, bwd, src, ref, w)


def concat_fuse_loss(cfg, params, frames, pairs, w):
    """The loss decoding all 2N rows, `fuse` one conv over concatenated
    source and reference features with the full [C, 2C, k, k] weight."""
    src, ref = np.asarray(pairs).T
    feat = N.encode(cfg, params, frames)
    h = T.concat_channels([T.take(feat, np.concatenate([src, ref])),
                           T.take(feat, np.concatenate([ref, src]))])
    h = T.leaky_relu(T.conv2d(h, params["fuse.weight"], params["fuse.bias"], 1, 1),
                     cfg.leaky_slope)
    for i in range(1, cfg.depth + 1):
        h = T.leaky_relu(T.conv_transpose2d(h, params[f"up{i}.weight"],
                                            params[f"up{i}.bias"], 2, 1), cfg.leaky_slope)
    out = T.conv2d(h, params["head.weight"], params["head.bias"], 1, 1)
    fwd, bwd = (MotionField(T.take_channel(T.take(out, rows), 0),
                            T.take_channel(T.take(out, rows), 1))
                for rows in np.split(np.arange(2 * len(src)), 2))
    return loss_terms(fwd, bwd, frames[src], frames[ref], w)


def loss_terms(fwd, bwd, src, ref, w):
    mse = T.scalar_mul(T.add(L.loss_mse(L.warp_image(src, fwd), ref),
                             L.loss_mse(L.warp_image(ref, bwd), src)), 0.5)
    smooth = T.scalar_mul(T.add(L.loss_smooth(fwd), L.loss_smooth(bwd)), 0.5)
    con = L.loss_consistency(fwd, bwd)
    return T.add(T.add(mse, T.scalar_mul(smooth, w.alpha_s)),
                 T.scalar_mul(con, w.beta_c))


class TestTotal:
    CFG = NetConfig(input_size=(16, 16), encoder_channels=(4, 8))

    def test_report_total_is_exact_weighted_sum(self):
        rng = np.random.default_rng(12)
        params = N.init_params(self.CFG, seed=1)
        src = rng.uniform(0, 255, self.CFG.input_size)
        ref = rng.uniform(0, 255, self.CFG.input_size)
        w = LossWeights(alpha_s=5e-5, beta_c=1e-6)
        tot, rep = pair_loss(self.CFG, params, src, ref, w)
        assert isinstance(rep, LossReport)
        assert abs(rep.total - (rep.mse + w.alpha_s * rep.smooth
                                + w.beta_c * rep.consistency)) < 1e-12
        assert tot.item() == rep.total

    def test_swap_arguments_same_total(self):
        rng = np.random.default_rng(13)
        params = N.init_params(self.CFG, seed=2)
        src = rng.uniform(0, 255, self.CFG.input_size)
        ref = rng.uniform(0, 255, self.CFG.input_size)
        t1, r1 = pair_loss(self.CFG, params, src, ref)
        t2, r2 = pair_loss(self.CFG, params, ref, src)
        assert abs(r1.total - r2.total) < 1e-12
        assert r1.mse == pytest.approx(r2.mse, abs=1e-15)

    def test_zero_network_reduces_to_frame_mse(self):
        params = N.init_params(self.CFG, seed=3)
        zeroed = N.ParamSet.from_arrays(
            {n: np.zeros_like(a) for n, a in params.to_arrays().items()})
        rng = np.random.default_rng(14)
        src = rng.uniform(0, 255, self.CFG.input_size)
        ref = rng.uniform(0, 255, self.CFG.input_size)
        _, rep = pair_loss(self.CFG, zeroed, src, ref)
        assert rep.smooth == 0.0
        assert rep.consistency == 0.0
        assert rep.total == pytest.approx(((src - ref) ** 2).mean(), rel=1e-13)

    def test_identical_frames_near_zero_loss_floor(self):
        # with equal frames the photometric optimum is zero flow; the raw
        # init network is not optimal, but mse of identical frames under a
        # tiny random flow stays small relative to frame scale
        params = N.init_params(self.CFG, seed=4)
        img = np.random.default_rng(15).uniform(0, 255, self.CFG.input_size)
        _, rep = pair_loss(self.CFG, params, img, img.copy())
        assert rep.total < ((img - img.mean()) ** 2).mean()

    def test_gradient_through_total_finite_difference(self):
        cfg = NetConfig(input_size=(8, 8), encoder_channels=(4, 4))
        rng = np.random.default_rng(16)
        params = N.init_params(cfg, seed=5)
        # push predicted flow off the integer lattice: at init the flow is
        # ~0, which parks every warp sample on a bilinear kink where central
        # differences straddle two linear pieces
        params["head.bias"].data[:] = (0.37, -0.29)
        src = rng.uniform(0, 255, cfg.input_size)
        ref = rng.uniform(0, 255, cfg.input_size)
        w = LossWeights()

        tot, _ = pair_loss(cfg, params, src, ref, w)
        tot.backward()
        arrays = params.to_arrays()
        for name in ("enc1.weight", "head.bias"):
            def f(arr, name=name):
                trial = {k: v.copy() for k, v in arrays.items()}
                trial[name] = arr
                with T.no_grad():
                    t, _ = pair_loss(cfg, N.ParamSet.from_arrays(trial),
                                     src, ref, w)
                    return t.item()

            fd = finite_diff(f, arrays[name].copy(), h=1e-4)
            assert rel_err(params[name].grad, fd) < 1e-3, name

    def test_batched_pairs_average_per_pair_losses(self):
        rng = np.random.default_rng(17)
        params = N.init_params(self.CFG, seed=6)
        src = rng.uniform(0, 255, (4, *self.CFG.input_size))
        ref = rng.uniform(0, 255, (4, *self.CFG.input_size))
        _, joint = pair_loss(self.CFG, params, src, ref)
        singles = [pair_loss(self.CFG, params, src[i], ref[i])[1].total
                   for i in range(4)]
        assert joint.total == pytest.approx(np.mean(singles), rel=1e-12)

    # frames 4 and 5 are in no pair, frame 1 is in four, and (0, 1) comes twice
    PAIRS = [(0, 1), (1, 2), (3, 1), (1, 0), (2, 3), (0, 1)]

    def test_matches_two_predict_flow_formula(self):
        rng = np.random.default_rng(18)
        frames = rng.uniform(0, 255, (6, *self.CFG.input_size))
        params = N.init_params(self.CFG, seed=7)
        params["head.bias"].data[:] = (0.37, -0.29)
        twin = params.clone()
        w = LossWeights(alpha_s=0.1, beta_c=0.05)
        tot, _ = L.loss_total(self.CFG, params, frames, self.PAIRS, w)
        tot.backward()
        want = two_flow_loss(self.CFG, twin, frames, self.PAIRS, w)
        want.backward()
        assert abs(tot.item() - want.item()) <= 1e-12 * abs(want.item())
        for name in params.names():
            g, g0 = params[name].grad, twin[name].grad
            assert np.max(np.abs(g - g0)) <= 1e-12 * np.max(np.abs(g0)), name

    def test_matches_concat_fuse_formula(self):
        rng = np.random.default_rng(20)
        frames = rng.uniform(0, 255, (6, *self.CFG.input_size))
        params = N.init_params(self.CFG, seed=9)
        params["head.bias"].data[:] = (0.37, -0.29)
        params["fuse.bias"].data[:] = rng.normal(size=params["fuse.bias"].shape)
        twin = params.clone()
        w = LossWeights(alpha_s=0.1, beta_c=0.05)
        tot, _ = L.loss_total(self.CFG, params, frames, self.PAIRS, w)
        tot.backward()
        want = concat_fuse_loss(self.CFG, twin, frames, self.PAIRS, w)
        want.backward()
        assert abs(tot.item() - want.item()) <= 1e-12 * abs(want.item())
        for name in params.names():
            g, g0 = params[name].grad, twin[name].grad
            assert np.max(np.abs(g - g0)) <= 1e-12 * np.max(np.abs(g0)), name

    def test_decoded_rows_equal_single_pair_predict_flow(self, monkeypatch):
        params = N.init_params(self.CFG, seed=10)
        frames = np.random.default_rng(21).uniform(0, 255, (6, *self.CFG.input_size))
        calls = []
        decode = N.decode

        def spy(cfg, params, feat_src, feat_ref, src, ref):
            flow = decode(cfg, params, feat_src, feat_ref, src, ref)
            calls.append((list(zip(src, ref)), flow))
            return flow

        monkeypatch.setattr(N, "decode", spy)
        L.loss_total(self.CFG, params, frames, self.PAIRS)
        [(rows, flow)] = calls
        # each distinct ordered pair of the rows [src; ref] -> [ref; src]
        assert sorted(rows) == sorted({p for a, b in self.PAIRS for p in ((a, b), (b, a))})
        monkeypatch.undo()
        for i, (a, b) in enumerate(rows):
            one = N.predict_flow(self.CFG, params, frames[[a]], frames[[b]])
            assert np.array_equal(flow.vx.data[i:i + 1], one.vx.data)
            assert np.array_equal(flow.vy.data[i:i + 1], one.vy.data)

    def test_fuse_runs_per_frame_and_up1_per_distinct_pair(self, monkeypatch):
        params = N.init_params(self.CFG, seed=11)
        names = {id(t): n for n, t in params.items()}
        rows = {}
        convs = {"conv2d": T.conv2d, "conv_transpose2d": T.conv_transpose2d}

        def spy(op):
            def run(x, weight, *args, **kwargs):
                # the two fuse halves are gathered from fuse.weight, not a parameter
                rows.setdefault(names.get(id(weight), "fuse"), []).append(x.shape[0])
                return convs[op](x, weight, *args, **kwargs)
            return run

        for op in convs:
            monkeypatch.setattr(T, op, spy(op))
        frames = np.random.default_rng(22).uniform(0, 255, (6, *self.CFG.input_size))
        tot, _ = L.loss_total(self.CFG, params, frames, self.PAIRS)
        tot.backward()
        assert rows["fuse"] == [6, 6]
        assert rows["up1.weight"] == [8]

    @pytest.mark.parametrize("pairs", [[(0, 1), (2, 6)], [(1, -1)], [(-1, 6)]])
    def test_pair_index_outside_frames_rejected(self, pairs):
        params = N.init_params(self.CFG, seed=12)
        with pytest.raises(ValueError):
            L.loss_total(self.CFG, params, np.zeros((6, *self.CFG.input_size)), pairs)

    def test_each_frame_encoded_once(self, monkeypatch):
        params = N.init_params(self.CFG, seed=8)
        rows = []
        conv2d = T.conv2d

        def spy(x, weight, *args, **kwargs):
            if weight is params["enc1.weight"]:
                rows.append(x.shape[0])
            return conv2d(x, weight, *args, **kwargs)

        monkeypatch.setattr(T, "conv2d", spy)
        frames = np.random.default_rng(19).uniform(0, 255, (6, *self.CFG.input_size))
        tot, _ = L.loss_total(self.CFG, params, frames, self.PAIRS)
        tot.backward()
        assert rows == [6]
