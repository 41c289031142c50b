"""Label warping, Dice, and Hausdorff against hand values and enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foal import data as D
from foal import metrics as M
from foal import network as N
from foal.data import LabelMask, PhantomParams
from foal.network import MotionField, NetConfig
from foal.tensor import Tensor


def mask_of(rows, spacing=(1.0, 1.0)):
    return LabelMask(np.asarray(rows, dtype=np.uint8), spacing)


def const_flow(shape, vx, vy):
    return MotionField(Tensor(np.full(shape, float(vx))),
                       Tensor(np.full(shape, float(vy))))


class TestWarpMask:
    def test_zero_flow_identity(self):
        rng = np.random.default_rng(0)
        m = mask_of(rng.integers(0, 4, size=(6, 6)))
        out = M.warp_mask(m, const_flow((6, 6), 0, 0))
        assert np.array_equal(out.labels, m.labels)

    def test_integer_shift_pulls_content_left(self):
        m = mask_of([[0, 0, 3, 0],
                     [0, 0, 3, 0]])
        out = M.warp_mask(m, const_flow((2, 4), 1, 0))
        assert np.array_equal(out.labels, [[0, 3, 0, 0],
                                           [0, 3, 0, 0]])

    def test_vertical_shift(self):
        m = mask_of([[0, 0], [2, 2], [0, 0]])
        out = M.warp_mask(m, const_flow((3, 2), 0, 1))
        assert np.array_equal(out.labels, [[2, 2], [0, 0], [0, 0]])

    def test_halfway_tie_takes_lowest_label(self):
        # sampling exactly between labels 1 and 2 gives equal one-hot scores
        m = mask_of([[1, 2]])
        out = M.warp_mask(m, MotionField(Tensor([[0.5, 0.0]]),
                                         Tensor([[0.0, 0.0]])))
        assert out.labels[0, 0] == 1

    def test_border_clamp_repeats_edge_labels(self):
        m = mask_of([[1, 0, 0, 2]])
        out = M.warp_mask(m, const_flow((1, 4), 10, 0))
        assert np.array_equal(out.labels, [[2, 2, 2, 2]])

    def test_spacing_carried_through(self):
        m = mask_of([[0, 1]], spacing=(0.8, 1.7))
        out = M.warp_mask(m, const_flow((1, 2), 0, 0))
        assert out.pixel_spacing_mm == (0.8, 1.7)


class TestDice:
    def test_identical_masks(self):
        m = mask_of([[0, 1], [1, 1]])
        assert M.dice(m, m, 1) == 1.0

    def test_disjoint_masks(self):
        a = mask_of([[1, 0], [0, 0]])
        b = mask_of([[0, 0], [0, 1]])
        assert M.dice(a, b, 1) == 0.0

    def test_half_overlap(self):
        a = mask_of([[1, 1, 0]])
        b = mask_of([[0, 1, 1]])
        assert M.dice(a, b, 1) == 0.5

    def test_both_empty_scores_one(self):
        a = mask_of([[0, 0]])
        b = mask_of([[0, 0]])
        assert M.dice(a, b, 3) == 1.0

    def test_one_empty_scores_zero(self):
        a = mask_of([[3, 0]])
        b = mask_of([[0, 0]])
        assert M.dice(a, b, 3) == 0.0
        assert M.dice(b, a, 3) == 0.0

    def test_per_label_independence(self):
        a = mask_of([[1, 2], [2, 1]])
        b = mask_of([[1, 1], [2, 2]])
        assert M.dice(a, b, 1) == 0.5
        assert M.dice(a, b, 2) == 0.5
        assert M.dice(a, b, 3) == 1.0

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_symmetric_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        a = mask_of(rng.integers(0, 4, size=(5, 5)))
        b = mask_of(rng.integers(0, 4, size=(5, 5)))
        for lab in range(4):
            d1, d2 = M.dice(a, b, lab), M.dice(b, a, lab)
            assert d1 == d2
            assert 0.0 <= d1 <= 1.0


class TestContour:
    def test_solid_block_keeps_only_rim(self):
        grid = np.zeros((5, 5), dtype=np.uint8)
        grid[1:4, 1:4] = 2
        pts = {tuple(p) for p in M.contour_points(mask_of(grid), 2)}
        want = {(i, j) for i in range(1, 4) for j in range(1, 4)} - {(2, 2)}
        assert pts == want

    def test_full_grid_contour_is_border(self):
        grid = np.full((4, 5), 1, dtype=np.uint8)
        pts = {tuple(p) for p in M.contour_points(mask_of(grid), 1)}
        want = {(i, j) for i in range(4) for j in range(5)
                if i in (0, 3) or j in (0, 4)}
        assert pts == want

    def test_adjacent_different_label_counts_as_boundary(self):
        grid = np.zeros((5, 5), dtype=np.uint8)
        grid[1:4, 1:4] = 3
        grid[2, 2] = 2  # hole of another label re-exposes the middle ring
        pts = {tuple(p) for p in M.contour_points(mask_of(grid), 3)}
        assert (2, 1) in pts and (1, 2) in pts


class TestHausdorff:
    def test_three_four_five_triangle(self):
        a = mask_of(np.zeros((6, 6)))
        b = mask_of(np.zeros((6, 6)))
        a.labels[0, 0] = 1
        b.labels[3, 4] = 1
        assert M.hausdorff(a, b, 1) == pytest.approx(5.0)

    def test_identical_masks_zero(self):
        grid = np.zeros((5, 5), dtype=np.uint8)
        grid[1:3, 1:3] = 2
        m = mask_of(grid)
        assert M.hausdorff(m, m, 2) == 0.0

    def test_directed_asymmetry(self):
        a = mask_of(np.zeros((1, 8)))
        b = mask_of(np.zeros((1, 8)))
        a.labels[0, 0] = 1
        b.labels[0, 0] = 1
        b.labels[0, 5] = 1
        # directed distances are 0 (a to b) and 5 (b to a); both orders give the max
        assert M.hausdorff(b, a, 1) == M.hausdorff(a, b, 1) == 5.0

    def test_pixel_spacing_scales_axes(self):
        a = mask_of(np.zeros((4, 4)), spacing=(2.0, 0.5))
        b = mask_of(np.zeros((4, 4)), spacing=(2.0, 0.5))
        a.labels[0, 0] = 1
        b.labels[0, 3] = 1   # 3 columns * 2.0 mm
        assert M.hausdorff(a, b, 1) == pytest.approx(6.0)
        c = mask_of(np.zeros((4, 4)), spacing=(2.0, 0.5))
        c.labels[3, 0] = 1   # 3 rows * 0.5 mm
        assert M.hausdorff(a, c, 1) == pytest.approx(1.5)

    def test_empty_contour_gives_nan(self):
        a = mask_of(np.zeros((3, 3)))
        b = mask_of(np.zeros((3, 3)))
        b.labels[1, 1] = 1
        assert np.isnan(M.hausdorff(a, b, 1))
        assert np.isnan(M.hausdorff(a, a, 1))

    def test_mismatched_spacing_rejected(self):
        a = mask_of([[1]], spacing=(1.0, 1.0))
        b = mask_of([[1]], spacing=(2.0, 1.0))
        with pytest.raises(ValueError, match="spacing"):
            M.hausdorff(a, b, 1)


class TestEvaluateVideo:
    CFG = NetConfig(input_size=(32, 32), encoder_channels=(4, 8))

    def _phantom(self):
        p = PhantomParams(noise_sigma=0.5, seed=3)
        return D.generate_phantom(p)

    def test_report_covers_foreground_labels(self):
        video, masks, _ = self._phantom()
        params = N.init_params(self.CFG, seed=0)
        rep = M.evaluate_video(self.CFG, params, video, masks)
        assert set(rep.dice) == {1, 2, 3}
        assert set(rep.hausdorff_mm) == {1, 2, 3}
        assert all(rep.present.values())
        assert all(0.0 <= v <= 1.0 for v in rep.dice.values())

    def test_ground_truth_flow_outperforms_zero_flow(self):
        video, masks, flows = self._phantom()
        ref = video.frame_count // 2
        warped_gt = M.warp_mask(masks[0], flows[ref])
        identity = masks[0]
        for lab in (1, 2, 3):
            assert M.dice(warped_gt, masks[ref], lab) > M.dice(identity, masks[ref], lab)

    def test_invalid_frame_pair_rejected(self):
        video, masks, _ = self._phantom()
        params = N.init_params(self.CFG, seed=0)
        with pytest.raises(ValueError):
            M.evaluate_video(self.CFG, params, video, masks, 2, 2)
        with pytest.raises(ValueError):
            M.evaluate_video(self.CFG, params, video, masks, 0, 99)

    def test_mask_count_must_match_frames(self):
        video, masks, _ = self._phantom()
        params = N.init_params(self.CFG, seed=0)
        with pytest.raises(ValueError, match="mask"):
            M.evaluate_video(self.CFG, params, video, masks[:-1])
