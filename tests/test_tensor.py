"""Autodiff core: forward oracles, adjoint identities, finite-difference checks."""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from foal import adapt as A, data as D, losses as L, network as N
from foal import tensor as T
from foal.tensor import Tensor


def finite_diff(f, x, h=1e-5):
    """Central-difference gradient of scalar f at ndarray x."""
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
        gf[i] = (fp - fm) / (2 * h)
    return g


def rel_err(analytic, fd):
    return np.max(np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd)))


def conv2d_oracle(x, w, b, stride, pad):
    """Nested-loop cross-correlation, the reference for the fast path."""
    cout, cin, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    oh = (x.shape[1] + 2 * pad - k) // stride + 1
    ow = (x.shape[2] + 2 * pad - k) // stride + 1
    y = np.zeros((cout, oh, ow))
    for co in range(cout):
        for i in range(oh):
            for j in range(ow):
                patch = xp[:, i * stride:i * stride + k, j * stride:j * stride + k]
                y[co, i, j] = np.sum(patch * w[co]) + b[co]
    return y


class TestElementwise:
    def test_add_sub_mul_values(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(T.add(a, b).data, [[6, 8], [10, 12]])
        assert np.array_equal(T.sub(a, b).data, [[-4, -4], [-4, -4]])
        assert np.array_equal(T.mul(a, b).data, [[5, 12], [21, 32]])

    def test_shape_mismatch_names_dims(self):
        a, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4)))
        with pytest.raises(T.ShapeError, match=r"\(2, 3\)"):
            T.mul(a, b)

    @pytest.mark.parametrize("op", [T.add, T.sub, T.mul])
    def test_scalar_does_not_broadcast(self, op):
        with pytest.raises(T.ShapeError, match=r"\(\) and \(3,\)"):
            op(Tensor(2.0), Tensor(np.ones(3)))

    def test_scalar_mul_and_square(self):
        a = Tensor([1.0, -2.0, 3.0])
        assert np.array_equal(T.scalar_mul(a, -0.5).data, [-0.5, 1.0, -1.5])
        assert np.array_equal(T.square(a).data, [1.0, 4.0, 9.0])

    def test_mean_sum(self):
        a = Tensor([[1.0, 2.0], [3.0, 6.0]])
        assert T.mean(a).item() == 3.0
        assert T.total(a).item() == 12.0

    def test_leaky_relu_values_and_slope_domain(self):
        a = Tensor([-2.0, 0.0, 3.0])
        out = T.leaky_relu(a, 0.1)
        assert np.allclose(out.data, [-0.2, 0.0, 3.0])
        with pytest.raises(ValueError):
            T.leaky_relu(a, 1.0)
        with pytest.raises(ValueError):
            T.leaky_relu(a, 0.0)

    def test_leaky_relu_gradient_at_zero_uses_slope(self):
        a = Tensor([0.0], requires_grad=True)
        T.leaky_relu(a, 0.1).backward()
        assert a.grad[0] == 0.1

    def test_leaky_relu_output_mask_equals_input_mask(self):
        # 0 < slope < 1, so out > 0 exactly where x > 0, down to signed zeros,
        # subnormals whose scaled value underflows, and NaN
        tiny = np.nextafter(0.0, 1.0)
        x = np.array([-0.0, 0.0, tiny, -tiny, 1e-300, -1e-300, np.nan, -3.0, 2.0, np.inf, -np.inf])
        for slope in (0.1, 0.5, 1e-300, np.nextafter(1.0, 0.0)):
            a = Tensor(x, requires_grad=True)
            g = np.random.default_rng(4).normal(size=x.shape)
            T.total(T.mul(T.leaky_relu(a, slope), Tensor(g))).backward()
            assert np.array_equal(a.grad, g * np.maximum(x > 0.0, slope)), slope

    def test_concat_channels_and_split_grad(self):
        a = Tensor(np.arange(4.0).reshape(1, 2, 2), requires_grad=True)
        b = Tensor(np.arange(8.0).reshape(2, 2, 2), requires_grad=True)
        cat = T.concat_channels([a, b])
        assert cat.shape == (3, 2, 2)
        assert np.array_equal(cat.data[:1], a.data)
        assert np.array_equal(cat.data[1:], b.data)
        T.total(T.mul(cat, cat)).backward()
        assert np.allclose(a.grad, 2 * a.data)
        assert np.allclose(b.grad, 2 * b.data)

    def test_take_channel_slice_hw(self):
        a = Tensor(np.arange(24.0).reshape(2, 3, 4))
        assert np.array_equal(T.take_channel(a, 1).data, a.data[1])
        assert np.array_equal(T.slice_hw(a, 1, 3, 0, 2).data, a.data[:, 1:3, 0:2])
        with pytest.raises(T.ShapeError):
            T.take_channel(a, 5)
        with pytest.raises(T.ShapeError):
            T.slice_hw(a, 0, 4, 0, 2)

    def test_reshape_slice_hw_take_channel_return_views(self):
        a = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        for out in (T.reshape(a, (4, 6)), T.slice_hw(a, 1, 3, 0, 2), T.take_channel(a, 1)):
            assert np.shares_memory(out.data, a.data)

    def test_take_empty_index_gradient_is_float64_zeros(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        T.total(T.take(a, [])).backward()
        assert a.grad.dtype == np.float64
        assert np.array_equal(a.grad, np.zeros((3, 2)))

    def test_take_matches_loop_oracle(self):
        # rows 1 and 4 repeat, rows 2 and 5 go unused
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(6, 2, 3, 3)), requires_grad=True)
        index = [4, 1, 0, 4, 3, 1, 1]
        g = rng.normal(size=(len(index), 2, 3, 3))
        out = T.take(a, index)
        T.total(T.mul(out, Tensor(g))).backward()
        want = np.zeros(a.shape)
        for i, row in enumerate(index):
            assert np.array_equal(out.data[i], a.data[row])
            want[row] += g[i]
        assert np.array_equal(a.grad, want)

    def test_take_rejects_bad_index(self):
        a = Tensor(np.zeros((3, 2)))
        for index in ([3], [-1], [[0, 1]]):
            with pytest.raises(T.ShapeError, match="take"):
                T.take(a, index)


class TestBackwardSemantics:
    def test_non_scalar_root_rejected(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(T.GradError):
            T.square(a).backward()

    def test_fanout_accumulates(self):
        # y = a*a + a*a has gradient 4a
        a = Tensor([3.0], requires_grad=True)
        s = T.square(a)
        T.total(T.add(s, s)).backward()
        assert a.grad[0] == pytest.approx(12.0)

    def test_repeated_backward_accumulates_into_grad(self):
        a = Tensor([2.0], requires_grad=True)
        T.mean(T.square(a)).backward()
        first = a.grad.copy()
        T.mean(T.square(a)).backward()
        assert np.array_equal(a.grad, 2 * first)

    def test_second_backward_on_same_root_raises(self):
        a = Tensor([2.0], requires_grad=True)
        loss = T.mean(T.square(a))
        loss.backward()
        with pytest.raises(T.GradError, match="consumed"):
            loss.backward()
        assert a.grad[0] == 4.0

    def test_backward_through_consumed_subgraph_raises(self):
        # two roots share s; the first backward consumes it
        a = Tensor([2.0, 3.0], requires_grad=True)
        s = T.square(a)
        T.total(s).backward()
        assert s._parents == () and not s.is_leaf
        with pytest.raises(T.GradError, match="consumed"):
            T.mean(s).backward()

    def test_backward_frees_buffers_held_by_vjp_closures(self):
        a = Tensor(np.ones(3), requires_grad=True)
        c = np.arange(3.0)  # a constant operand that only the mul node holds
        held = weakref.ref(c)
        loss = T.total(T.mul(a, c))
        del c
        assert held() is not None
        loss.backward()
        assert held() is None
        assert loss._parents == ()
        assert np.array_equal(a.grad, [0.0, 1.0, 2.0])

    def test_backward_releases_each_node_once_its_vjp_has_run(self):
        x = Tensor(np.ones(3), requires_grad=True)
        held, dead = [], []

        def vjp(g):
            dead.append(held[0]() is None)
            return (g,)

        def build():  # only the root outlives this frame
            a = T._record(x.data * 1.0, (x,), vjp)
            b = T.square(a)
            held.append(weakref.ref(b.data))
            return T.total(b)

        build().backward()
        assert dead == [True]
        assert np.array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_backward_calls_a_replaced_vjp_once(self):
        # a tracer may wrap an op output's recorded vjp from outside the tape
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        b = Tensor(np.zeros(4))
        assert T.conv2d(Tensor(x.data), Tensor(w.data), b)._vjp is None

        def grads(wrap):
            x.grad = w.grad = None
            out, calls = T.conv2d(x, w, b, 2, 1), []
            if wrap:
                vjp = out._vjp
                out._vjp = lambda g: calls.append(g) or vjp(g)
            T.total(T.square(out)).backward()
            return x.grad, w.grad, calls

        *plain, none = grads(False)
        *traced, calls = grads(True)
        assert len(calls) == 1 and not none
        assert all(np.array_equal(p, t) for p, t in zip(plain, traced))

    def test_no_grad_suppresses_tape(self):
        a = Tensor([2.0], requires_grad=True)
        with T.no_grad():
            out = T.square(a)
        assert out.is_leaf and not out.requires_grad

    def test_grad_of_constant_branch_is_none(self):
        a = Tensor([1.0], requires_grad=True)
        c = Tensor([5.0])
        T.total(T.mul(a, c)).backward()
        assert c.grad is None
        assert a.grad[0] == 5.0

    def test_diamond_graph_matches_hand_derivative(self):
        # f(a) = mean((a + a*a) * a);  df/da = (1 + 2a)*a + (a + a^2), / n
        a_val = np.array([0.5, -1.5, 2.0])
        a = Tensor(a_val, requires_grad=True)
        f = T.mean(T.mul(T.add(a, T.square(a)), a))
        f.backward()
        hand = ((1 + 2 * a_val) * a_val + a_val + a_val ** 2) / 3
        assert np.allclose(a.grad, hand, atol=1e-14)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_grad_linearity_in_seed_scale(self, seed):
        # backward of c*f equals c * backward of f
        rng = np.random.default_rng(seed)
        x_val = rng.normal(size=(2, 3))
        c = float(rng.normal())
        x1 = Tensor(x_val.copy(), requires_grad=True)
        T.mean(T.square(x1)).backward()
        x2 = Tensor(x_val.copy(), requires_grad=True)
        T.scalar_mul(T.mean(T.square(x2)), c).backward()
        assert np.allclose(x2.grad, c * x1.grad, rtol=1e-12, atol=1e-12)


class TestTapeRetention:
    """What the tape keeps. A node links to its inputs' nodes, not to their
    arrays, and a vjp closure holds only what it reads: an op output the
    caller dropped is freed unless a vjp reads it, and no op keeps a copy of
    what its inputs already hold (measured with tracemalloc)."""

    SHAPE = (4, 8, 32, 32)

    @staticmethod
    def kept(op, *args):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = op(*args)
            return tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("op, k, stride", [(T.conv2d, 3, 1), (T.conv_transpose2d, 4, 2)])
    def test_conv_keeps_no_copy_of_its_input(self, op, k, stride):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=self.SHAPE), requires_grad=True)
        w = Tensor(rng.normal(size=(8, 8, k, k)), requires_grad=True)
        b = Tensor(np.zeros(8), requires_grad=True)
        kept = self.kept(op, x, w, b, stride, 1)
        assert kept < x.data.nbytes / 16, kept

    def test_leaky_relu_keeps_no_mask(self):
        x = Tensor(np.random.default_rng(1).normal(size=self.SHAPE), requires_grad=True)
        kept = self.kept(T.leaky_relu, x, 0.1)
        assert kept < x.data.size / 16, kept

    def test_dropped_outputs_are_freed_before_backward(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)

        def build(keep):
            conv = T.conv2d(x, w, b, 1, 1)
            sq = T.square(T.leaky_relu(conv, 0.1))
            keep += [conv, sq]
            return T.total(sq), (weakref.ref(conv.data), weakref.ref(sq.data))

        # no vjp reads a conv output behind leaky_relu, or a square output
        loss, held = build([])
        assert [r() for r in held] == [None, None]
        loss.backward()
        grads = w.grad.copy(), b.grad.copy()
        w.grad = b.grad = None
        kept = []
        build(kept)[0].backward()
        assert np.array_equal(w.grad, grads[0]) and np.array_equal(b.grad, grads[1])

    def test_leaky_relu_keeps_its_output_not_its_input(self):
        x = Tensor(np.random.default_rng(3).normal(size=(3, 4)), requires_grad=True)

        def build():
            a = T.scalar_mul(x, 1.0)  # an op output only this frame holds
            out = T.leaky_relu(a, 0.1)
            return T.total(out), weakref.ref(a.data), weakref.ref(out.data)

        loss, held_in, held_out = build()
        assert held_in() is None and held_out() is not None
        loss.backward()
        assert held_out() is None
        assert np.array_equal(x.grad, np.where(x.data > 0.0, 1.0, 0.1))

    @staticmethod
    def default_loss():
        cfg = N.NetConfig()
        params = N.init_params(cfg, seed=0)
        video = D.preprocess(D.generate_phantom(D.PhantomParams(seed=0))[0])
        pairs = A.sample_pairs(len(video.frames), 24, np.random.default_rng(0))
        return params, L.loss_total(cfg, params, video.frames, pairs)[0]

    def test_default_loss_frees_what_no_vjp_reads(self, monkeypatch):
        held = []  # (op name, weakref to its output's array)

        def watch(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                held.append((fn.__name__, weakref.ref(out.data)))
                return out
            return wrapper

        conv2d = T.conv2d

        def conv2d_marking_weights(x, weight, *args, **kwargs):
            # a conv's vjp reads its weight: mark the takes that serve as one
            for i, (_, ref) in enumerate(held):
                if ref() is weight.data:
                    held[i] = ("conv weight", ref)
            return conv2d(x, weight, *args, **kwargs)

        for module, name in ((T, "square"), (T, "take"), (L, "warp_image")):
            monkeypatch.setattr(module, name, watch(getattr(module, name)))
        monkeypatch.setattr(T, "conv2d", conv2d_marking_weights)
        params, loss = self.default_loss()
        monkeypatch.undo()
        names = [name for name, _ in held]
        assert names.count("square") > 0 and names.count("take") > 0
        assert names.count("warp_image") == 6 and names.count("conv weight") == 2
        assert [name for name, ref in held if ref() is not None] == ["conv weight"] * 2
        loss.backward()
        assert all(ref() is None for _, ref in held)
        twin, want = self.default_loss()
        want.backward()
        for name in params.names():
            assert np.array_equal(params[name].grad, twin[name].grad), name

    def test_no_vjp_closure_holds_a_tensor(self):
        _, loss = self.default_loss()
        nodes, stack, seen = 0, [loss._node], set()
        while stack:
            node = stack.pop()
            if id(node) in seen or node.vjp is None:
                continue
            seen.add(id(node))
            nodes += 1
            cells = [c.cell_contents for c in node.vjp.__closure__ or ()]
            assert not any(isinstance(c, Tensor) for c in cells), node.vjp
            stack += [p for p in node.parents if p is not None]
        assert nodes > 50


class TestConvForward:
    @pytest.mark.parametrize("cin,cout,hw,k,stride,pad", [
        (1, 1, 5, 3, 1, 0),
        (2, 3, 6, 3, 1, 1),
        (3, 2, 8, 3, 2, 1),
        (1, 4, 7, 5, 2, 2),
        (2, 2, 4, 1, 1, 0),
    ])
    def test_matches_nested_loop_oracle(self, cin, cout, hw, k, stride, pad):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, cin, hw, hw))
        w = rng.normal(size=(cout, cin, k, k))
        b = rng.normal(size=cout)
        got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride, pad).data
        want = conv2d_oracle(x[0], w, b, stride, pad)[None]
        assert got.shape == want.shape
        assert np.allclose(got, want, atol=1e-12)

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 1, 6, 6))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = T.conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(1)), 1, 1)
        assert np.allclose(out.data, x, atol=1e-15)

    def test_batched_equals_per_sample(self):
        rng = np.random.default_rng(1)
        xs = rng.normal(size=(4, 2, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        joint = T.conv2d(Tensor(xs), Tensor(w), Tensor(b), 2, 1).data
        for n in range(4):
            single = T.conv2d(Tensor(xs[n:n + 1]), Tensor(w), Tensor(b), 2, 1).data
            assert np.array_equal(joint[n:n + 1], single)

    def test_linearity_in_input(self):
        rng = np.random.default_rng(2)
        x1 = rng.normal(size=(1, 2, 5, 5))
        x2 = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(2, 2, 3, 3))
        zb = np.zeros(2)
        f = lambda x: T.conv2d(Tensor(x), Tensor(w), Tensor(zb), 1, 1).data
        assert np.allclose(f(x1 + 2 * x2), f(x1) + 2 * f(x2), atol=1e-12)

    def test_channel_mismatch_error(self):
        with pytest.raises(T.ShapeError, match="channels"):
            T.conv2d(Tensor(np.zeros((1, 2, 4, 4))),
                     Tensor(np.zeros((1, 3, 3, 3))), Tensor(np.zeros(1)))

    def test_kernel_larger_than_padded_input_error(self):
        with pytest.raises(T.ShapeError):
            T.conv2d(Tensor(np.zeros((1, 1, 2, 2))),
                     Tensor(np.zeros((1, 1, 5, 5))), Tensor(np.zeros(1)), 1, 0)

    @pytest.mark.parametrize("op,weight", [(T.conv2d, (4, 2, 3, 3)),
                                           (T.conv_transpose2d, (2, 4, 4, 4))])
    def test_unbatched_input_rejected(self, op, weight):
        # one [C,H,W] sample is a batch of one, [1,C,H,W]
        with pytest.raises(T.ShapeError, match=r"\[N,C,H,W\]"):
            op(Tensor(np.zeros((2, 6, 6))), Tensor(np.zeros(weight)), Tensor(np.zeros(4)), 2, 1)


def conv_transpose2d_oracle(x, w, b, stride, pad):
    """Nested-loop scatter reference for the transposed convolution."""
    cin, cout, k, _ = w.shape
    _, h, wd = x.shape
    oh = (h - 1) * stride - 2 * pad + k
    ow = (wd - 1) * stride - 2 * pad + k
    y = np.zeros((cout, oh + 2 * pad, ow + 2 * pad))
    for ci in range(cin):
        for i in range(h):
            for j in range(wd):
                y[:, i * stride:i * stride + k, j * stride:j * stride + k] += \
                    x[ci, i, j] * w[ci]
    y = y[:, pad:pad + oh, pad:pad + ow]
    return y + b[:, None, None]


class TestConvTransposeForward:
    def test_output_shape_doubles_with_4x4_s2_p1(self):
        x = Tensor(np.zeros((1, 8, 5, 7)))
        w = Tensor(np.zeros((8, 4, 4, 4)))
        out = T.conv_transpose2d(x, w, Tensor(np.zeros(4)), 2, 1)
        assert out.shape == (1, 4, 10, 14)

    @pytest.mark.parametrize("cin,cout,hw,k,stride,pad", [
        (1, 1, 4, 3, 1, 0),
        (2, 3, 5, 4, 2, 1),
        (3, 2, 4, 4, 2, 1),
        (2, 1, 3, 5, 3, 2),
    ])
    def test_matches_scatter_oracle(self, cin, cout, hw, k, stride, pad):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, cin, hw, hw))
        w = rng.normal(size=(cin, cout, k, k))
        b = rng.normal(size=cout)
        got = T.conv_transpose2d(Tensor(x), Tensor(w), Tensor(b), stride, pad).data
        want = conv_transpose2d_oracle(x[0], w, b, stride, pad)[None]
        assert got.shape == want.shape
        assert np.allclose(got, want, atol=1e-12)

    def test_adjoint_inner_product_identity(self):
        # <conv2d(u, w), v> == <u, conv_transpose2d(v, w)> with zero bias.
        # The same [C_out, C_in, k, k] array serves both directions.
        rng = np.random.default_rng(3)
        # sizes chosen so (H + 2*pad - k) divides by stride exactly,
        # otherwise the two ops pair spaces of different sizes
        for stride, pad, k, hw in [(1, 0, 3, 9), (1, 1, 3, 9), (2, 1, 3, 9), (3, 2, 5, 10)]:
            u = rng.normal(size=(1, 3, hw, hw))
            w = rng.normal(size=(2, 3, k, k))
            oh = (hw + 2 * pad - k) // stride + 1
            v = rng.normal(size=(1, 2, oh, oh))
            cu = T.conv2d(Tensor(u), Tensor(w), Tensor(np.zeros(2)), stride, pad).data
            tv = T.conv_transpose2d(Tensor(v), Tensor(w), Tensor(np.zeros(3)),
                                    stride, pad).data
            lhs = np.sum(cu * v)
            rhs = np.sum(u * tv)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_batched_equals_per_sample(self):
        rng = np.random.default_rng(9)
        xs = rng.normal(size=(3, 2, 4, 4))
        w = rng.normal(size=(2, 3, 4, 4))
        b = rng.normal(size=3)
        joint = T.conv_transpose2d(Tensor(xs), Tensor(w), Tensor(b), 2, 1).data
        for n in range(3):
            single = T.conv_transpose2d(Tensor(xs[n:n + 1]), Tensor(w), Tensor(b), 2, 1).data
            assert np.array_equal(joint[n:n + 1], single)


class TestGradientsAgainstFiniteDifferences:
    """Central-difference oracle, h = 1e-5, worst-element relative error."""

    def check(self, build, x0, tol=1e-4):
        x = Tensor(x0.copy(), requires_grad=True)
        build(x).backward()

        def f(arr):
            with T.no_grad():
                return build(Tensor(arr)).item()

        fd = finite_diff(f, x0.copy())
        assert rel_err(x.grad, fd) < tol

    def test_elementwise_chain(self):
        rng = np.random.default_rng(10)
        x0 = rng.normal(size=(3, 4))
        other = Tensor(rng.normal(size=(3, 4)))
        self.check(lambda x: T.mean(T.mul(T.square(T.add(x, other)), x)), x0)

    def test_leaky_relu_away_from_kink(self):
        rng = np.random.default_rng(11)
        x0 = rng.normal(size=(2, 5))
        x0[np.abs(x0) < 0.05] += 0.2
        self.check(lambda x: T.mean(T.leaky_relu(x, 0.1)), x0)

    def test_take_repeated_and_unused_rows(self):
        rng = np.random.default_rng(12)
        w = Tensor(rng.normal(size=(5, 2, 3)))
        self.check(lambda x: T.total(T.mul(T.square(T.take(x, [3, 0, 3, 1, 3])), w)),
                   rng.normal(size=(5, 2, 3)))

    def test_conv2d_wrt_input(self):
        rng = np.random.default_rng(12)
        x0 = rng.normal(size=(1, 2, 6, 6))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)))
        b = Tensor(rng.normal(size=3))
        self.check(lambda x: T.mean(T.square(T.conv2d(x, w, b, 2, 1))), x0)

    def test_conv2d_wrt_weight_and_bias(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(1, 2, 6, 6)))
        w0 = rng.normal(size=(3, 2, 3, 3))
        b0 = rng.normal(size=3)

        w = Tensor(w0.copy(), requires_grad=True)
        b = Tensor(b0.copy(), requires_grad=True)
        T.mean(T.square(T.conv2d(x, w, b, 1, 1))).backward()

        def fw(arr):
            with T.no_grad():
                return T.mean(T.square(T.conv2d(x, Tensor(arr), Tensor(b0), 1, 1))).item()

        def fb(arr):
            with T.no_grad():
                return T.mean(T.square(T.conv2d(x, Tensor(w0), Tensor(arr), 1, 1))).item()

        assert rel_err(w.grad, finite_diff(fw, w0.copy())) < 1e-4
        assert rel_err(b.grad, finite_diff(fb, b0.copy())) < 1e-4

    def test_conv_transpose_wrt_all_args(self):
        rng = np.random.default_rng(14)
        x0 = rng.normal(size=(1, 3, 4, 4))
        w0 = rng.normal(size=(3, 2, 4, 4))
        b0 = rng.normal(size=2)

        x = Tensor(x0.copy(), requires_grad=True)
        w = Tensor(w0.copy(), requires_grad=True)
        b = Tensor(b0.copy(), requires_grad=True)
        T.mean(T.square(T.conv_transpose2d(x, w, b, 2, 1))).backward()

        def make(xa, wa, ba):
            with T.no_grad():
                return T.mean(T.square(
                    T.conv_transpose2d(Tensor(xa), Tensor(wa), Tensor(ba), 2, 1))).item()

        assert rel_err(x.grad, finite_diff(lambda a: make(a, w0, b0), x0.copy())) < 1e-4
        assert rel_err(w.grad, finite_diff(lambda a: make(x0, a, b0), w0.copy())) < 1e-4
        assert rel_err(b.grad, finite_diff(lambda a: make(x0, w0, a), b0.copy())) < 1e-4

    def test_batched_conv_grad_equals_sum_of_per_sample(self):
        rng = np.random.default_rng(15)
        xs = rng.normal(size=(3, 2, 6, 6))
        w0 = rng.normal(size=(2, 2, 3, 3))
        b0 = np.zeros(2)

        w = Tensor(w0.copy(), requires_grad=True)
        T.total(T.square(T.conv2d(Tensor(xs), w, Tensor(b0), 2, 1))).backward()
        joint = w.grad.copy()

        acc = np.zeros_like(w0)
        for n in range(3):
            wn = Tensor(w0.copy(), requires_grad=True)
            T.total(T.square(T.conv2d(Tensor(xs[n:n + 1]), wn, Tensor(b0), 2, 1))).backward()
            acc += wn.grad
        assert np.allclose(joint, acc, rtol=1e-12, atol=1e-12)


class TestDeterminism:
    def test_same_graph_same_grads_bitwise(self):
        rng = np.random.default_rng(42)
        x0 = rng.normal(size=(1, 2, 8, 8))
        w0 = rng.normal(size=(4, 2, 3, 3))

        def run():
            x = Tensor(x0.copy(), requires_grad=True)
            w = Tensor(w0.copy(), requires_grad=True)
            y = T.leaky_relu(T.conv2d(x, w, Tensor(np.zeros(4)), 2, 1), 0.1)
            T.mean(T.square(y)).backward()
            return x.grad.copy(), w.grad.copy()

        gx1, gw1 = run()
        gx2, gw2 = run()
        assert np.array_equal(gx1, gx2)
        assert np.array_equal(gw1, gw2)


def conv2d_vjp_oracle(x, w, v, stride, pad):
    """Loop gradients of <conv2d(x, w), v> in x and w."""
    cout, cin, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    gxp, gw = np.zeros_like(xp), np.zeros_like(w)
    for co in range(cout):
        for i in range(v.shape[1]):
            for j in range(v.shape[2]):
                win = (slice(None), slice(i * stride, i * stride + k),
                       slice(j * stride, j * stride + k))
                gxp[win] += v[co, i, j] * w[co]
                gw[co] += v[co, i, j] * xp[win]
    return gxp[:, pad:pad + x.shape[1], pad:pad + x.shape[2]], gw


class TestConvKernelPaths:
    """Strides that do not divide the span, kernels that are not a multiple
    of the stride, and non-square inputs, forward and backward."""

    @pytest.mark.parametrize("cin,cout,h,w,k,stride,pad", [
        (2, 3, 8, 8, 3, 3, 0),
        (3, 2, 7, 10, 3, 2, 1),
        (2, 2, 5, 9, 3, 1, 1),
        (1, 4, 11, 6, 5, 3, 2),
    ])
    def test_conv2d_forward_and_vjp_match_loops(self, cin, cout, h, w, k, stride, pad):
        rng = np.random.default_rng(21)
        x0, w0, b0 = rng.normal(size=(1, cin, h, w)), rng.normal(size=(cout, cin, k, k)), rng.normal(size=cout)
        x, wt, b = (Tensor(a.copy(), requires_grad=True) for a in (x0, w0, b0))
        y = T.conv2d(x, wt, b, stride, pad)
        assert np.allclose(y.data[0], conv2d_oracle(x0[0], w0, b0, stride, pad), atol=1e-12)
        v = rng.normal(size=y.shape)
        T.total(T.mul(y, Tensor(v))).backward()
        gx, gw = conv2d_vjp_oracle(x0[0], w0, v[0], stride, pad)
        assert np.allclose(x.grad[0], gx, atol=1e-12)
        assert np.allclose(wt.grad, gw, atol=1e-12)
        assert np.allclose(b.grad, v[0].sum(axis=(1, 2)), atol=1e-12)

    @pytest.mark.parametrize("cin,cout,h,w,k,stride,pad", [
        (2, 3, 4, 4, 3, 2, 1),
        (2, 1, 3, 3, 5, 3, 2),
        (3, 2, 3, 5, 3, 2, 0),
        (1, 2, 4, 2, 5, 3, 1),
        (2, 2, 5, 3, 2, 3, 0),
    ])
    def test_conv_transpose2d_forward_and_vjp_match_loops(self, cin, cout, h, w, k, stride, pad):
        rng = np.random.default_rng(22)
        x0, w0, b0 = rng.normal(size=(1, cin, h, w)), rng.normal(size=(cin, cout, k, k)), rng.normal(size=cout)
        x, wt, b = (Tensor(a.copy(), requires_grad=True) for a in (x0, w0, b0))
        y = T.conv_transpose2d(x, wt, b, stride, pad)
        assert np.allclose(y.data[0], conv_transpose2d_oracle(x0[0], w0, b0, stride, pad), atol=1e-12)
        v = rng.normal(size=y.shape)
        T.total(T.mul(y, Tensor(v))).backward()
        # <convT(x, w), v> = <x, conv2d(v, w)>, so the conv2d loops give both gradients
        assert np.allclose(x.grad[0], conv2d_oracle(v[0], w0, np.zeros(cin), stride, pad), atol=1e-12)
        _, gw = conv2d_vjp_oracle(v[0], w0, x0[0], stride, pad)
        assert np.allclose(wt.grad, gw, atol=1e-12)
        assert np.allclose(b.grad, v[0].sum(axis=(1, 2)), atol=1e-12)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_geometry_matches_loops(self, data):
        transposed = data.draw(st.booleans())
        stride, pad = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2))
        k = data.draw(st.integers(1, 5) if transposed else st.sampled_from([1, 3, 5]))
        h, w = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
        cin, cout = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1)))
        x0 = rng.normal(size=(1, cin, h, w))
        w0 = rng.normal(size=(cin, cout, k, k) if transposed else (cout, cin, k, k))
        if transposed:
            assume((h - 1) * stride - 2 * pad + k >= 1 and (w - 1) * stride - 2 * pad + k >= 1)
            want = conv_transpose2d_oracle(x0[0], w0, np.zeros(cout), stride, pad)
        else:
            assume(h + 2 * pad >= k and w + 2 * pad >= k)
            want = conv2d_oracle(x0[0], w0, np.zeros(cout), stride, pad)
        x, wt = Tensor(x0.copy(), requires_grad=True), Tensor(w0.copy(), requires_grad=True)
        op = T.conv_transpose2d if transposed else T.conv2d
        y = op(x, wt, Tensor(np.zeros(cout)), stride, pad)
        assert np.allclose(y.data[0], want, atol=1e-12)
        v = rng.normal(size=y.shape)
        T.total(T.mul(y, Tensor(v))).backward()
        if transposed:
            gx = conv2d_oracle(v[0], w0, np.zeros(cin), stride, pad)
            _, gw = conv2d_vjp_oracle(v[0], w0, x0[0], stride, pad)
        else:
            gx, gw = conv2d_vjp_oracle(x0[0], w0, v[0], stride, pad)
        assert np.allclose(x.grad[0], gx, atol=1e-12)
        assert np.allclose(wt.grad, gw, atol=1e-12)

    @pytest.mark.parametrize("transposed", [False, True])
    def test_batched_non_square_equals_per_sample(self, transposed):
        rng = np.random.default_rng(23)
        xs = rng.normal(size=(5, 3, 6, 9))
        w = rng.normal(size=(3, 4, 3, 3) if transposed else (4, 3, 3, 3))
        op = T.conv_transpose2d if transposed else T.conv2d
        joint = op(Tensor(xs), Tensor(w), Tensor(np.zeros(4)), 2, 1).data
        for n in range(5):
            single = op(Tensor(xs[n:n + 1]), Tensor(w), Tensor(np.zeros(4)), 2, 1).data
            assert np.array_equal(joint[n:n + 1], single)
