"""Online adaptation and meta-learning loops."""

import math

import numpy as np
import pytest

from foal import adapt as A
from foal import data as D
from foal import network as N
from foal import tensor as T
from foal.adapt import MetaConfig, OnlineConfig
from foal.data import PhantomParams
from foal.losses import LossWeights
from foal.network import NetConfig
from foal.optim import Adam

CFG = NetConfig(input_size=(16, 16), encoder_channels=(4, 8))
W = LossWeights()


def tiny_phantom(seed, frames=6):
    p = PhantomParams(height=16, width=16, frame_count=frames, lv_radius=4.0,
                      myo_thickness=1.5, rv_radius=1.5, rv_offset=5.0,
                      noise_sigma=1.0, seed=seed)
    video, _, _ = D.generate_phantom(p)
    return D.preprocess(video, (16, 16))


@pytest.fixture(scope="module")
def videos():
    return [tiny_phantom(seed) for seed in range(4)]


class TestSamplePairs:
    def test_deterministic_for_seeded_rng(self):
        a = A.sample_pairs(10, 24, np.random.default_rng(7))
        b = A.sample_pairs(10, 24, np.random.default_rng(7))
        assert a == b

    def test_ranges_and_distinctness(self):
        pairs = A.sample_pairs(7, 500, np.random.default_rng(1))
        assert len(pairs) == 500
        for s, r in pairs:
            assert 0 <= s < 7 and 0 <= r < 7
            assert s != r

    def test_two_frames_covers_both_orders(self):
        pairs = A.sample_pairs(2, 200, np.random.default_rng(2))
        assert set(pairs) == {(0, 1), (1, 0)}

    def test_roughly_uniform_over_ordered_pairs(self):
        # 6 ordered pairs from 3 frames; chi-square-ish sanity bound
        pairs = A.sample_pairs(3, 6000, np.random.default_rng(3))
        _, counts = np.unique(np.array(pairs), axis=0, return_counts=True)
        assert len(counts) == 6
        assert np.all(np.abs(counts - 1000) < 150)

    def test_single_frame_rejected(self):
        with pytest.raises(ValueError):
            A.sample_pairs(1, 4, np.random.default_rng(0))


class TestOnlineAdapt:
    def test_base_params_never_mutated(self, videos):
        base = N.init_params(CFG, seed=0)
        before = base.to_arrays()
        A.online_adapt(CFG, base, videos[0], OnlineConfig(steps=2, pairs=4))
        for n, arr in base.to_arrays().items():
            assert np.array_equal(arr, before[n])

    def test_zero_steps_returns_exact_copy(self, videos):
        base = N.init_params(CFG, seed=1)
        theta, reports = A.online_adapt(CFG, base, videos[0],
                                        OnlineConfig(steps=0, pairs=4))
        assert reports == []
        for n in base.names():
            assert np.array_equal(theta[n].data, base[n].data)

    def test_loss_decreases_on_the_fixed_batch(self, videos):
        base = N.init_params(CFG, seed=2)
        _, reports = A.online_adapt(CFG, base, videos[0],
                                    OnlineConfig(steps=3, pairs=8))
        assert len(reports) == 3
        assert reports[-1].total < reports[0].total

    def test_deterministic_given_config(self, videos):
        base = N.init_params(CFG, seed=3)
        t1, _ = A.online_adapt(CFG, base, videos[1],
                               OnlineConfig(steps=2, pairs=6, seed=9))
        t2, _ = A.online_adapt(CFG, base, videos[1],
                               OnlineConfig(steps=2, pairs=6, seed=9))
        for n in t1.names():
            assert np.array_equal(t1[n].data, t2[n].data)

    def test_sgd_variant_runs_and_differs_from_adam(self, videos):
        base = N.init_params(CFG, seed=4)
        ta, _ = A.online_adapt(CFG, base, videos[0],
                               OnlineConfig(steps=2, pairs=6, optimizer="adam"))
        ts, _ = A.online_adapt(CFG, base, videos[0],
                               OnlineConfig(steps=2, pairs=6, optimizer="sgd",
                                            learning_rate=1e-6))
        assert any(not np.array_equal(ta[n].data, ts[n].data) for n in ta.names())

    def test_bad_optimizer_rejected(self):
        with pytest.raises(ValueError):
            OnlineConfig(optimizer="lbfgs")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("steps,lr,match", [
        (3, 1e6, "step 2 diverged, loss nan"),
        (1, np.inf, r"step 0 diverged, loss \S+, non-finite parameters \['enc1.weight'"),
    ])
    def test_diverging_descent_raises(self, videos, steps, lr, match):
        base = N.init_params(CFG, seed=0)
        ocfg = OnlineConfig(steps=steps, optimizer="sgd", learning_rate=lr)
        with pytest.raises(A.DivergenceError, match=match):
            A.online_adapt(CFG, base, videos[0], ocfg)


class TestMetaInner:
    def test_zero_inner_steps_is_identity_and_no_rng_use(self, videos):
        theta = N.init_params(CFG, seed=5)
        mcfg = MetaConfig(inner_steps=0, pairs=4, meta_steps=1)
        rng = np.random.default_rng(11)
        theta_i = A.meta_inner(CFG, theta, videos[0], mcfg, W, rng)
        for n in theta.names():
            assert np.array_equal(theta_i[n].data, theta[n].data)
        # the rng must be untouched so downstream draws stay aligned
        assert rng.integers(0, 1 << 30) == np.random.default_rng(11).integers(0, 1 << 30)

    def test_inner_steps_move_clone_not_source(self, videos):
        theta = N.init_params(CFG, seed=6)
        before = theta.to_arrays()
        mcfg = MetaConfig(inner_steps=2, pairs=4, inner_lr=1e-4, meta_steps=1)
        theta_i = A.meta_inner(CFG, theta, videos[0], mcfg, W,
                               np.random.default_rng(0))
        assert any(not np.array_equal(theta_i[n].data, theta[n].data)
                   for n in theta.names())
        for n, arr in theta.to_arrays().items():
            assert np.array_equal(arr, before[n])


class TestMetaGradient:
    def test_covers_every_parameter_with_finite_values(self, videos):
        theta = N.init_params(CFG, seed=7)
        pairs = A.sample_pairs(videos[0].frame_count, 4, np.random.default_rng(1))
        grads, rep = A.meta_gradient(CFG, theta.clone(), videos[0], pairs, W)
        assert set(grads) == set(theta.names())
        assert all(np.all(np.isfinite(g)) for g in grads.values())
        assert np.isfinite(rep.total)

    def test_matches_direct_backward(self, videos):
        theta = N.init_params(CFG, seed=8)
        pairs = A.sample_pairs(videos[0].frame_count, 4, np.random.default_rng(2))
        grads, _ = A.meta_gradient(CFG, theta.clone(), videos[0], pairs, W)

        direct = theta.clone()
        loss, _ = A.batch_loss(CFG, direct, videos[0], pairs, W)
        loss.backward()
        for n in theta.names():
            assert np.array_equal(grads[n], direct[n].grad)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_heldout_loss_raises(self, videos):
        theta = N.init_params(CFG, seed=9)
        theta["head.bias"].data[0] = np.nan
        with pytest.raises(A.DivergenceError, match="held-out loss is nan"):
            A.meta_gradient(CFG, theta, videos[0], [(0, 1)], W)


class TestMetaTrainStep:
    def test_average_of_two_equals_joint_half_sum(self, videos):
        """Averaging per-video gradients must equal the gradient of the
        averaged loss when both videos are evaluated at the same point."""
        theta = N.init_params(CFG, seed=9)
        rng = np.random.default_rng(3)
        pairs1 = A.sample_pairs(videos[0].frame_count, 4, rng)
        pairs2 = A.sample_pairs(videos[1].frame_count, 4, rng)

        g1, _ = A.meta_gradient(CFG, theta.clone(), videos[0], pairs1, W)
        g2, _ = A.meta_gradient(CFG, theta.clone(), videos[1], pairs2, W)
        averaged = {n: (g1[n] + g2[n]) / 2.0 for n in g1}

        joint = theta.clone()
        l1, _ = A.batch_loss(CFG, joint, videos[0], pairs1, W)
        l2, _ = A.batch_loss(CFG, joint, videos[1], pairs2, W)
        T.scalar_mul(T.add(l1, l2), 0.5).backward()
        for n in averaged:
            denom = max(1.0, np.abs(averaged[n]).max())
            assert np.abs(joint[n].grad - averaged[n]).max() / denom < 1e-10

    def test_updates_theta_in_place_and_reports(self, videos):
        theta = N.init_params(CFG, seed=10)
        before = theta.to_arrays()
        mcfg = MetaConfig(videos_per_step=2, inner_steps=1, pairs=4,
                          inner_lr=1e-5, meta_lr=1e-4, meta_steps=1)
        rec = A.meta_train_step(CFG, theta, videos, mcfg, W, Adam(mcfg.meta_lr),
                                np.random.default_rng(4), step=17)
        assert rec.step == 17
        assert np.isfinite(rec.heldout.total)
        assert any(not np.array_equal(theta[n].data, before[n])
                   for n in theta.names())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_update_raises(self, videos):
        theta = N.init_params(CFG, seed=10)
        mcfg = MetaConfig(videos_per_step=2, inner_steps=1, pairs=4, meta_steps=1)
        with pytest.raises(A.DivergenceError, match=r"meta step 3 diverged, held-out loss "
                           r"[0-9.e-]+, non-finite parameters \['enc1.weight', "):
            A.meta_train_step(CFG, theta, videos[:2], mcfg, W, Adam(math.inf),
                              np.random.default_rng(4), step=3)

    def test_zero_inner_steps_degenerates_to_plain_step(self, videos):
        """With no inner updates a meta step is exactly an Adam step on the
        averaged held-out gradient taken at theta; replay the same draws by
        hand and demand bitwise equality."""
        seed = 21
        mcfg = MetaConfig(videos_per_step=2, inner_steps=0, pairs=5,
                          meta_lr=1e-4, meta_steps=1, seed=seed)
        theta_meta = N.init_params(CFG, seed=11)
        rng = np.random.default_rng(seed)
        A.meta_train_step(CFG, theta_meta, videos, mcfg, W, Adam(mcfg.meta_lr),
                          rng, step=0)

        # manual replay with an identically seeded generator
        theta_plain = N.init_params(CFG, seed=11)
        rng2 = np.random.default_rng(seed)
        chosen = rng2.choice(len(videos), size=2, replace=False)
        accum = {n: np.zeros_like(theta_plain[n].data) for n in theta_plain.names()}
        for vi in chosen:
            video = videos[int(vi)]
            pairs = A.sample_pairs(video.frame_count, 5, rng2)
            probe = theta_plain.clone()
            loss, _ = A.batch_loss(CFG, probe, video, pairs, W)
            loss.backward()
            for n in accum:
                accum[n] += probe[n].grad
        for n in accum:
            accum[n] /= 2
        Adam(mcfg.meta_lr).step(theta_plain, accum)

        for n in theta_meta.names():
            assert np.array_equal(theta_meta[n].data, theta_plain[n].data), n


class TestMetaTrain:
    def test_initial_params_unchanged_and_records_counted(self, videos):
        theta0 = N.init_params(CFG, seed=12)
        before = theta0.to_arrays()
        mcfg = MetaConfig(videos_per_step=2, inner_steps=1, pairs=4,
                          meta_steps=3, seed=1)
        theta, records = A.meta_train(CFG, theta0, videos, mcfg, W)
        assert len(records) == 3
        assert [r.step for r in records] == [0, 1, 2]
        for n, arr in theta0.to_arrays().items():
            assert np.array_equal(arr, before[n])
        assert any(not np.array_equal(theta[n].data, theta0[n].data)
                   for n in theta.names())

    def test_deterministic_per_seed(self, videos):
        theta0 = N.init_params(CFG, seed=13)
        mcfg = MetaConfig(videos_per_step=2, inner_steps=1, pairs=4,
                          meta_steps=2, seed=5)
        t1, r1 = A.meta_train(CFG, theta0, videos, mcfg, W)
        t2, r2 = A.meta_train(CFG, theta0, videos, mcfg, W)
        for n in t1.names():
            assert np.array_equal(t1[n].data, t2[n].data)
        assert [r.heldout.total for r in r1] == [r.heldout.total for r in r2]

    def test_zero_meta_steps_returns_copy(self, videos):
        theta0 = N.init_params(CFG, seed=14)
        theta, records = A.meta_train(CFG, theta0, videos,
                                      MetaConfig(meta_steps=0), W)
        assert records == []
        for n in theta0.names():
            assert np.array_equal(theta[n].data, theta0[n].data)

    def test_progress_callback_sees_every_record(self, videos):
        theta0 = N.init_params(CFG, seed=15)
        seen = []
        mcfg = MetaConfig(videos_per_step=1, inner_steps=0, pairs=3,
                          meta_steps=4, seed=2)
        _, records = A.meta_train(CFG, theta0, videos, mcfg, W,
                                  progress=seen.append)
        assert seen == records


class TestTrainBaseline:
    def test_loss_trends_downward(self, videos):
        theta0 = N.init_params(CFG, seed=16)
        _, history = A.train_baseline(CFG, theta0, videos, steps=40,
                                      batch_pairs=8, learning_rate=1e-3, seed=3)
        assert len(history) == 40
        first = np.mean([r.total for r in history[:8]])
        last = np.mean([r.total for r in history[-8:]])
        assert last < first

    def test_deterministic_and_source_preserved(self, videos):
        theta0 = N.init_params(CFG, seed=17)
        before = theta0.to_arrays()
        t1, h1 = A.train_baseline(CFG, theta0, videos, steps=5, batch_pairs=4,
                                  learning_rate=1e-3, seed=4)
        t2, h2 = A.train_baseline(CFG, theta0, videos, steps=5, batch_pairs=4,
                                  learning_rate=1e-3, seed=4)
        for n in t1.names():
            assert np.array_equal(t1[n].data, t2[n].data)
        assert [r.total for r in h1] == [r.total for r in h2]
        for n, arr in theta0.to_arrays().items():
            assert np.array_equal(arr, before[n])
