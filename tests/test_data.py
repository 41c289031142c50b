"""Phantom generation, preprocessing, and binary round-trips."""

import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foal import data as D
from foal import metrics as M
from foal import network as N
from foal.data import (DatasetSplit, FormatError, LabelMask, ManifestEntry,
                       PhantomParams, Video)
from foal.network import MotionField, NetConfig
from foal.tensor import Tensor


class TestPhantomGeometry:
    def test_determinism_per_seed(self):
        p = PhantomParams(seed=5)
        v1, m1, f1 = D.generate_phantom(p)
        v2, m2, f2 = D.generate_phantom(p)
        assert np.array_equal(v1.frames, v2.frames)
        for a, b in zip(m1, m2):
            assert np.array_equal(a.labels, b.labels)
        for a, b in zip(f1, f2):
            assert np.array_equal(a.vx.data, b.vx.data)

    def test_seed_changes_noise_only(self):
        v1, m1, _ = D.generate_phantom(PhantomParams(seed=1))
        v2, m2, _ = D.generate_phantom(PhantomParams(seed=2))
        assert not np.array_equal(v1.frames, v2.frames)
        for a, b in zip(m1, m2):
            assert np.array_equal(a.labels, b.labels)

    def test_all_labels_present_every_frame(self):
        _, masks, _ = D.generate_phantom(PhantomParams())
        for m in masks:
            assert set(np.unique(m.labels)) == {D.BACKGROUND, D.RV, D.MYO, D.LV}

    def test_ed_frames_at_ends_es_in_middle(self):
        p = PhantomParams(noise_sigma=0.0)
        _, masks, _ = D.generate_phantom(p)
        areas = [int((m.labels == D.LV).sum()) for m in masks]
        assert areas[0] == areas[-1]
        assert min(areas) == areas[len(areas) // 2]

    def test_lv_area_shrinks_monotonically_to_midpoint(self):
        # odd frame count puts peak contraction exactly on a frame
        p = PhantomParams(noise_sigma=0.0, contraction_amplitude=0.3,
                          frame_count=9)
        _, masks, _ = D.generate_phantom(p)
        areas = [int((m.labels == D.LV).sum()) for m in masks]
        mid = len(areas) // 2
        # pixel counts can tie between neighbouring frames near peak
        # contraction, so monotone non-increasing plus a real net shrink
        for t in range(mid):
            assert areas[t + 1] <= areas[t], (t, areas)
        assert areas[mid] < 0.75 * areas[0]

    def test_zero_amplitude_freezes_motion(self):
        p = PhantomParams(noise_sigma=0.0, contraction_amplitude=0.0)
        video, masks, flows = D.generate_phantom(p)
        for t in range(1, p.frame_count):
            assert np.array_equal(video.frames[t], video.frames[0])
            assert np.array_equal(masks[t].labels, masks[0].labels)
            assert np.all(flows[t].vx.data == 0.0)

    def test_flow_zero_at_frame_zero_and_center(self):
        _, _, flows = D.generate_phantom(PhantomParams())
        assert np.all(flows[0].vx.data == 0.0)
        assert np.all(flows[0].vy.data == 0.0)
        # scaling is about the LV center, which therefore never moves
        mid = len(flows) // 2
        cy, cx = 15.5, 15.5
        vx, vy = flows[mid].arrays()
        # bilinear read at the exact center of a symmetric field is 0
        assert abs(vx[15, 15] + vx[16, 16]) < 1e-12

    def test_flow_points_outward_during_contraction(self):
        # backward flow from a contracted frame reaches outward to frame 0
        _, _, flows = D.generate_phantom(PhantomParams(contraction_amplitude=0.3))
        vx, _ = flows[3].arrays()
        assert vx[16, -1] > 0.0  # right edge samples further right
        assert vx[16, 0] < 0.0   # left edge samples further left

    def test_ground_truth_flow_reproduces_later_frames(self):
        from foal.losses import warp_image
        p = PhantomParams(noise_sigma=0.0)
        video, _, flows = D.generate_phantom(p)
        for t in (2, p.frame_count // 2):
            flow = MotionField(*(Tensor(a[None]) for a in flows[t].arrays()))
            warped = warp_image(video.frames[[0]].astype(np.float64), flow).data[0]
            target = video.frames[t].astype(np.float64)
            # soft edges make the rendering nearly shift-equivariant
            assert np.abs(warped - target).mean() < 2.0
            assert np.corrcoef(warped.ravel(), target.ravel())[0, 1] > 0.995

    def test_mask_self_consistency_high_dice(self):
        # structures thick relative to the pixel grid: label transfer error
        # under warping scales with contour length over area, so the ring
        # thickness controls the worst label
        p = PhantomParams(height=160, width=160, lv_radius=25.0,
                          myo_thickness=17.0, rv_radius=16.0, rv_offset=60.0,
                          noise_sigma=0.0)
        _, masks, flows = D.generate_phantom(p)
        for t in range(p.frame_count):
            warped = M.warp_mask(masks[0], flows[t])
            for lab in (D.RV, D.MYO, D.LV):
                assert M.dice(warped, masks[t], lab) >= 0.98, (t, lab)

    def test_geometry_overflow_rejected(self):
        with pytest.raises(ValueError, match="overflow"):
            PhantomParams(lv_radius=14.0, myo_thickness=3.0)
        with pytest.raises(ValueError, match="RV"):
            PhantomParams(rv_offset=13.0, rv_radius=4.0)

    def test_intensity_gradient_brightens_right_side(self):
        base = PhantomParams(noise_sigma=0.0)
        ramped = PhantomParams(noise_sigma=0.0, intensity_gradient=0.4)
        v0, _, _ = D.generate_phantom(base)
        v1, _, _ = D.generate_phantom(ramped)
        left = v1.frames[0][:, :8].mean() / v0.frames[0][:, :8].mean()
        right = v1.frames[0][:, -8:].mean() / v0.frames[0][:, -8:].mean()
        assert left < 1.0 < right


class TestVideo:
    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    @pytest.mark.parametrize("bad", [np.nan, -np.inf, 1e300])
    def test_non_finite_frames_rejected(self, bad):
        # 1e300 is finite in float64 but overflows the float32 frame store
        frames = np.zeros((3, 4, 5))
        frames[2, 1, 3] = bad
        with pytest.raises(ValueError, match=r"finite.*\[2, 1, 3\]"):
            D.Video(frames)

    @pytest.mark.parametrize("spacing", [(np.nan, 1.0), (1.0, np.inf), (-np.inf, 1.0), (1.0, 0.0)])
    def test_spacing_must_be_finite_and_positive(self, spacing):
        with pytest.raises(ValueError, match="spacing"):
            Video(np.zeros((2, 3, 3)), spacing)
        with pytest.raises(ValueError, match="spacing"):
            LabelMask(np.zeros((3, 3)), spacing)

    @pytest.mark.parametrize("make", [lambda: Video(np.zeros((2, 0, 5))),
                                      lambda: Video(np.zeros((2, 5, 0))),
                                      lambda: LabelMask(np.zeros((0, 3)))])
    def test_empty_frames_rejected(self, make):
        with pytest.raises(ValueError, match="empty"):
            make()


def fvid(frames, spacing=(1.0, 1.0)) -> bytes:
    frames = np.asarray(frames, dtype="<f4")
    return (b"FVID" + struct.pack("<4I2d", D.FORMAT_VERSION, *frames.shape, *spacing)
            + frames.tobytes())


def fmsk(labels, spacing=(1.0, 1.0)) -> bytes:
    labels = np.asarray(labels, dtype=np.uint8)
    return (b"FMSK" + struct.pack("<3I2d", D.FORMAT_VERSION, *labels.shape, *spacing)
            + labels.tobytes())


def fckp(arrays) -> bytes:
    blob = b"FCKP" + struct.pack("<II", D.FORMAT_VERSION, len(arrays))
    for name, a in arrays.items():
        blob += struct.pack("<I", len(name)) + name.encode("utf-8")
        blob += struct.pack(f"<{a.ndim + 1}I", a.ndim, *a.shape) + a.astype("<f8").tobytes()
    return blob


class TestPreprocess:
    def test_rescales_to_full_range(self):
        frames = np.stack([np.full((4, 4), 10.0), np.full((4, 4), 30.0)])
        out = D.preprocess(Video(frames), (4, 4))
        assert out.frames.min() == 0.0
        assert out.frames.max() == 255.0
        assert np.all(out.frames[0] == 0.0)
        assert np.all(out.frames[1] == 255.0)

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        frames = rng.normal(size=(3, 6, 6))
        a = D.preprocess(Video(frames), (6, 6)).frames
        b = D.preprocess(Video(frames * 7.0 - 11.0), (6, 6)).frames
        assert np.allclose(a, b, atol=1e-4)

    def test_center_crop(self):
        frames = np.zeros((2, 6, 6), dtype=np.float32)
        frames[:, 2:4, 2:4] = 100.0
        out = D.preprocess(Video(frames), (2, 2))
        assert out.frames.shape == (2, 2, 2)
        assert np.all(out.frames == 255.0)

    def test_zero_pad_centers_content(self):
        frames = np.stack([np.zeros((2, 2)), np.full((2, 2), 9.0)])
        out = D.preprocess(Video(frames), (4, 4))
        assert out.frames.shape == (2, 4, 4)
        assert np.all(out.frames[1][1:3, 1:3] == 255.0)
        assert out.frames[1].sum() == 4 * 255.0

    def test_constant_video_warns_and_zeroes(self):
        frames = np.full((2, 3, 3), 42.0)
        with pytest.warns(UserWarning, match="constant"):
            out = D.preprocess(Video(frames), (3, 3))
        assert np.all(out.frames == 0.0)

    def test_idempotent_at_fixed_size(self):
        video, _, _ = D.generate_phantom(PhantomParams(seed=9))
        once = D.preprocess(video, (32, 32))
        twice = D.preprocess(once, (32, 32))
        assert np.allclose(once.frames, twice.frames, atol=1e-3)


class TestBinaryRoundTrips:
    def test_video_bitwise(self, tmp_path):
        video, _, _ = D.generate_phantom(PhantomParams(seed=11))
        path = tmp_path / "v.fvid"
        D.write_video(path, video)
        back = D.read_video(path)
        assert np.array_equal(back.frames, video.frames)
        assert back.frames.dtype == np.float32
        assert back.pixel_spacing_mm == video.pixel_spacing_mm

    def test_mask_bitwise(self, tmp_path):
        _, masks, _ = D.generate_phantom(PhantomParams(seed=12))
        path = tmp_path / "m.fmsk"
        D.write_mask(path, masks[0])
        back = D.read_mask(path)
        assert np.array_equal(back.labels, masks[0].labels)
        assert back.pixel_spacing_mm == masks[0].pixel_spacing_mm

    def test_checkpoint_bitwise_and_ordered(self, tmp_path):
        params = N.init_params(NetConfig(input_size=(16, 16),
                                         encoder_channels=(4, 8)), seed=13)
        path = tmp_path / "p.fckp"
        D.write_checkpoint(path, params)
        back = D.read_checkpoint(path)
        assert back.names() == params.names()
        for n in params.names():
            assert np.array_equal(back[n].data, params[n].data)

    def test_write_read_write_identical_bytes(self, tmp_path):
        video, masks, _ = D.generate_phantom(PhantomParams(seed=14))
        p1, p2 = tmp_path / "a.fvid", tmp_path / "b.fvid"
        D.write_video(p1, video)
        D.write_video(p2, D.read_video(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_video_reports_offset(self, tmp_path):
        video, _, _ = D.generate_phantom(PhantomParams(seed=15))
        path = tmp_path / "t.fvid"
        D.write_video(path, video)
        blob = path.read_bytes()
        path.write_bytes(blob[:40])
        with pytest.raises(FormatError, match="byte offset"):
            D.read_video(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.fvid"
        path.write_bytes(b"JUNK" + bytes(64))
        with pytest.raises(FormatError, match="magic"):
            D.read_video(path)

    def test_wrong_version_rejected(self, tmp_path):
        video, _, _ = D.generate_phantom(PhantomParams(seed=16))
        path = tmp_path / "v.fvid"
        D.write_video(path, video)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            D.read_video(path)

    def test_non_finite_video_reports_offset_of_first(self, tmp_path):
        video, _, _ = D.generate_phantom(PhantomParams(seed=18))
        path = tmp_path / "n.fvid"
        D.write_video(path, video)
        blob = bytearray(path.read_bytes())
        # 36 header bytes, then f32 pixels: [1, 2, 3] is pixel 1091, [5, 0, 0] pixel 5120
        blob[36 + 4 * 5120:36 + 4 * 5121] = struct.pack("<f", np.inf)
        blob[36 + 4 * 1091:36 + 4 * 1092] = struct.pack("<f", np.nan)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="non-finite frame value at byte offset 4400"):
            D.read_video(path)

    def _checkpoint_with(self, tmp_path, name: bytes, dims: tuple[int, ...]):
        blob = b"FCKP" + struct.pack("<II", D.FORMAT_VERSION, 1)
        blob += struct.pack("<I", len(name)) + name
        blob += struct.pack(f"<I{len(dims)}I", len(dims), *dims)
        path = tmp_path / "bad.fckp"
        path.write_bytes(blob + bytes(64))
        return path

    def test_checkpoint_invalid_utf8_name_reports_offset(self, tmp_path):
        path = self._checkpoint_with(tmp_path, b"enc\xff.weight", (1,))
        # header 12 bytes, name length 4, then the name: 0xff is its 4th byte
        with pytest.raises(FormatError, match="UTF-8 at byte offset 19"):
            D.read_checkpoint(path)

    def test_checkpoint_overflowing_dims_report_offset(self, tmp_path):
        path = self._checkpoint_with(tmp_path, b"w", (2 ** 32 - 1,) * 4)
        with pytest.raises(FormatError, match="byte offset"):
            D.read_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_checkpoint_reports_offset_of_first(self, tmp_path, bad):
        w = np.zeros((2, 3))
        w[0, 2], w[1, 1] = bad, np.inf
        path = tmp_path / "n.fckp"
        D.write_checkpoint(path, N.ParamSet.from_arrays({"a": np.ones(3), "bb.w": w}))
        # 12 header bytes; "a" takes 4 + 1 + 4 + 4 + 24 = 37; "bb.w" has 20
        # bytes of name and dims, then [0, 2] is its third f64
        with pytest.raises(FormatError, match="'bb.w' at byte offset 85"):
            D.read_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        _, masks, _ = D.generate_phantom(PhantomParams(seed=17))
        path = tmp_path / "m.fmsk"
        D.write_mask(path, masks[0])
        path.write_bytes(path.read_bytes() + b"zz")
        with pytest.raises(FormatError, match="trailing"):
            D.read_mask(path)

    @pytest.mark.parametrize("read,blob,match", [
        (D.read_video, fvid(np.zeros((1, 2, 2))), ">= 2 non-empty frames"),
        (D.read_video, fvid(np.zeros((2, 0, 5))), "empty"),
        (D.read_video, fvid(np.zeros((2, 2, 2)), (np.nan, 1.0)), "byte offset 20: pixel spacing"),
        (D.read_video, fvid(np.zeros((2, 2, 2)), (1.0, np.inf)), "byte offset 20: pixel spacing"),
        (D.read_mask, fmsk([[0, 7], [1, 2]]), r"labels must lie in \[0, 3\]"),
        (D.read_mask, fmsk(np.zeros((0, 4))), "empty"),
        (D.read_mask, fmsk(np.zeros((2, 2)), (np.inf, 1.0)), "byte offset 16: pixel spacing"),
        (D.read_mask, fmsk(np.zeros((2, 2)), (1.0, -np.nan)), "byte offset 16: pixel spacing"),
    ], ids=["one-frame", "empty-frames", "nan-spacing", "inf-spacing",
            "label-7", "empty-mask", "mask-inf-spacing", "mask-nan-spacing"])
    def test_invalid_contents_raise_format_error(self, tmp_path, read, blob, match):
        path = tmp_path / "bad.bin"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=match) as err:
            read(path)
        assert str(path) in str(err.value)


def _fuzz_seeds():
    """Small valid files, the offsets of their u32 header fields and of the
    bytes of their tensor names."""
    return {
        "fvid": (fvid(np.arange(24.0).reshape(2, 3, 4), (0.5, 2.0)),
                 D.read_video, Video, (4, 8, 12, 16), ()),
        "fmsk": (fmsk(np.arange(12).reshape(3, 4) % 4, (0.5, 2.0)),
                 D.read_mask, LabelMask, (4, 8, 12), ()),
        # count, then per tensor: name length, name, ndim, dims, f64 data
        "fckp": (fckp({"enc.w": np.ones((2, 3)), "b": np.arange(2.0)}),
                 D.read_checkpoint, N.ParamSet,
                 (4, 8, 12, 21, 25, 29, 81, 86, 90), (16, 17, 18, 19, 20, 85)),
    }


FUZZ = _fuzz_seeds()


@st.composite
def mutated(draw, kind):
    blob, _, _, u32s, names = FUZZ[kind]
    b = bytearray(blob)
    how = draw(st.sampled_from(["truncate", "flip", "huge"] + ["utf8"] * bool(names)))
    if how == "truncate":
        return bytes(b[:draw(st.integers(0, len(b) - 1))])
    if how == "flip":
        b[draw(st.integers(0, len(b) - 1))] ^= draw(st.integers(1, 255))
    elif how == "huge":
        i = draw(st.sampled_from(u32s))
        b[i:i + 4] = struct.pack("<I", draw(st.integers(2 ** 16, 2 ** 32 - 1)))
    else:
        b[draw(st.sampled_from(names))] = draw(st.integers(0x80, 0xFF))
    return bytes(b)


class TestReaderFuzz:
    """Every reader returns a valid object or raises FormatError, whatever
    the damage to a valid file."""

    @pytest.mark.parametrize("kind", sorted(FUZZ))
    def test_seed_files_are_valid(self, tmp_path, kind):
        blob, read, cls, _, _ = FUZZ[kind]
        path = tmp_path / f"seed.{kind}"
        path.write_bytes(blob)
        assert isinstance(read(path), cls)

    @pytest.mark.parametrize("kind", sorted(FUZZ))
    @given(data=st.data())
    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    def test_valid_object_or_format_error(self, tmp_path_factory, kind, data):
        _, read, cls, _, _ = FUZZ[kind]
        path = tmp_path_factory.getbasetemp() / f"fuzz.{kind}"
        path.write_bytes(data.draw(mutated(kind)))
        try:
            obj = read(path)
        except FormatError:
            return
        assert isinstance(obj, cls)
        if cls is N.ParamSet:
            assert all(np.isfinite(t.data).all() for _, t in obj.items())


class TestManifest:
    def _write_dataset(self, root, n=2):
        split = DatasetSplit()
        for i in range(n):
            video, masks, _ = D.generate_phantom(PhantomParams(seed=20 + i))
            vid = f"vid{i:03d}"
            vpath = root / f"{vid}.fvid"
            D.write_video(vpath, video)
            mpaths = []
            for t, m in enumerate(masks):
                mp = root / f"{vid}_m{t}.fmsk"
                D.write_mask(mp, m)
                mpaths.append(mp)
            split.baseline_train.append(ManifestEntry(vid, vpath, mpaths,
                                                      "inside", "baseline_train"))
        return split

    def test_round_trip(self, tmp_path):
        split = self._write_dataset(tmp_path)
        D.save_manifest(tmp_path / "manifest.json", split)
        back = D.load_manifest(tmp_path / "manifest.json")
        assert [e.video_id for e in back.baseline_train] == ["vid000", "vid001"]
        assert back.meta_train == []
        video, masks = D.load_entry(back.baseline_train[0])
        assert video.frame_count == len(masks)
        assert video.video_id == "vid000"

    def test_duplicate_id_rejected(self, tmp_path):
        split = self._write_dataset(tmp_path)
        split.baseline_train[1].video_id = "vid000"
        D.save_manifest(tmp_path / "manifest.json", split)
        with pytest.raises(FormatError, match="duplicate"):
            D.load_manifest(tmp_path / "manifest.json")

    def test_unknown_split_rejected(self, tmp_path):
        split = self._write_dataset(tmp_path, n=1)
        D.save_manifest(tmp_path / "manifest.json", split)
        doc = (tmp_path / "manifest.json").read_text()
        (tmp_path / "manifest.json").write_text(
            doc.replace("baseline_train", "training"))
        with pytest.raises(FormatError, match="split"):
            D.load_manifest(tmp_path / "manifest.json")

    def test_missing_key_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            '{"videos": [{"id": "a", "video": "a.fvid"}]}')
        with pytest.raises(FormatError, match="missing keys"):
            D.load_manifest(tmp_path / "manifest.json")

    @pytest.mark.parametrize("doc,where", [
        ({"videos": 5}, "manifest must be an object with a 'videos' list"),
        ({"videos": [5]}, "entry 0 is not an object"),
        ({"videos": [{"video": 3}]}, "entry 0 needs string values"),
        ({"videos": [{"id": ["a"]}]}, "entry 0 needs string values"),
        ({"videos": [{}, {"masks": 7}]}, "entry 1 needs string values"),
        ({"videos": [{"masks": ["a_m0.fmsk", 7]}]}, "entry 0 needs string values"),
    ])
    def test_mistyped_values_rejected(self, tmp_path, doc, where):
        good = {"id": "a", "video": "a.fvid", "masks": [], "category": "inside",
                "split": "test_inside"}
        if isinstance(doc["videos"], list):
            doc = {"videos": [{**good, "id": f"v{i}", **e} if isinstance(e, dict) else e
                              for i, e in enumerate(doc["videos"])]}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=re.escape(f"{path}: {where}")):
            D.load_manifest(path)

    def test_invalid_json_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{nope")
        with pytest.raises(FormatError, match="JSON"):
            D.load_manifest(tmp_path / "manifest.json")

    def test_mask_count_mismatch_rejected(self, tmp_path):
        split = self._write_dataset(tmp_path, n=1)
        split.baseline_train[0].mask_paths.pop()
        D.save_manifest(tmp_path / "manifest.json", split)
        back = D.load_manifest(tmp_path / "manifest.json")
        with pytest.raises(FormatError, match="masks"):
            D.load_entry(back.baseline_train[0])
