"""Videos, label masks, synthetic phantoms, and on-disk formats.

The phantom is a contracting two-ventricle slice: a bright LV blood pool
inside a darker myocardial ring, with an RV pool offset to the left. Frames
scale the whole geometry radially about the LV center by

    s(t) = 1 - amplitude * sin(pi * t / (T - 1))

so the sequence starts and ends at full dilation with peak contraction in
the middle. Because the deformation is a pure radial scaling, the dense
backward flow from frame 0 to frame t is available in closed form and every
frame's mask is computed analytically rather than warped.
"""

from __future__ import annotations

import json
import math
import struct
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from foal.network import MotionField, ParamSet
from foal.tensor import Tensor

BACKGROUND, RV, MYO, LV = 0, 1, 2, 3
NUM_LABELS = 4

FORMAT_VERSION = 1

# phantom intensity per tissue, before the ramp and noise
INTENSITY_BG, INTENSITY_RV, INTENSITY_MYO, INTENSITY_LV = 30.0, 120.0, 70.0, 200.0


class FormatError(ValueError):
    """Malformed binary file; message names the file and any byte offset."""


def _check_spacing(spacing, where: str = "") -> None:
    if not all(math.isfinite(s) and s > 0 for s in spacing):
        raise ValueError(f"{where}pixel spacing must be finite and positive, got {spacing}")


@dataclass
class Video:
    """Frame stack [T, H, W], float32, with isotropic-or-not pixel spacing."""

    frames: np.ndarray
    pixel_spacing_mm: tuple[float, float] = (1.0, 1.0)
    video_id: str = ""

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float32)
        if self.frames.ndim != 3:
            raise ValueError(f"frames must be [T,H,W], got {self.frames.shape}")
        if self.frames.shape[0] < 2 or not self.frames[0].size:
            raise ValueError(f"a video needs >= 2 non-empty frames, got {self.frames.shape}")
        bad = np.argwhere(~np.isfinite(self.frames))
        if len(bad):
            raise ValueError(f"frames must be finite; {len(bad)} values are not, "
                             f"the first at [t, y, x] = {bad[0].tolist()}")
        _check_spacing(self.pixel_spacing_mm)

    @property
    def frame_count(self) -> int:
        return self.frames.shape[0]

    @property
    def frame_shape(self) -> tuple[int, int]:
        return self.frames.shape[1], self.frames.shape[2]


@dataclass
class LabelMask:
    """Segmentation labels [H, W]: 0 background, 1 RV, 2 myocardium, 3 LV."""

    labels: np.ndarray
    pixel_spacing_mm: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        if self.labels.ndim != 2 or not self.labels.size:
            raise ValueError(f"labels must be a non-empty [H,W] grid, got {self.labels.shape}")
        if self.labels.max(initial=0) >= NUM_LABELS:
            raise ValueError(f"labels must lie in [0, {NUM_LABELS - 1}], "
                             f"got max {self.labels.max()}")
        _check_spacing(self.pixel_spacing_mm)


@dataclass(frozen=True)
class PhantomParams:
    """Geometry, motion, and imaging knobs for one synthetic video."""

    height: int = 32
    width: int = 32
    frame_count: int = 8
    lv_radius: float = 7.5
    myo_thickness: float = 2.5
    rv_radius: float = 4.5
    rv_offset: float = 10.0
    contraction_amplitude: float = 0.25
    noise_sigma: float = 2.0
    intensity_gradient: float = 0.0
    pixel_spacing_mm: tuple[float, float] = (1.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        if self.frame_count < 2:
            raise ValueError("phantom needs >= 2 frames")
        if not 0.0 <= self.contraction_amplitude < 1.0:
            raise ValueError(f"contraction_amplitude must lie in [0, 1), "
                             f"got {self.contraction_amplitude}")
        if min(self.lv_radius, self.myo_thickness, self.rv_radius,
               self.rv_offset) <= 0:
            raise ValueError("radii, thickness, and offset must be positive")
        if self.noise_sigma < 0 or self.intensity_gradient < 0:
            raise ValueError("noise_sigma and intensity_gradient must be >= 0")
        if self.intensity_gradient >= 1.0:
            raise ValueError("intensity_gradient must stay below 1 to keep the "
                             "ramp factor positive")
        cx, cy = (self.width - 1) / 2.0, (self.height - 1) / 2.0
        margin = 1.0  # soft edge half-width plus half a pixel
        reach = min(cx, cy)
        outer = self.lv_radius + self.myo_thickness
        if outer + margin > reach:
            raise ValueError(f"myocardium outer radius {outer} overflows a "
                             f"{self.height}x{self.width} frame")
        if self.rv_offset + self.rv_radius + margin > cx:
            raise ValueError(f"RV disc (offset {self.rv_offset}, radius "
                             f"{self.rv_radius}) overflows the left frame edge")


def _scale_at(t: int, frame_count: int, amplitude: float) -> float:
    return 1.0 - amplitude * float(np.sin(np.pi * t / (frame_count - 1)))


def generate_phantom(p: PhantomParams) -> tuple[Video, list[LabelMask],
                                                list[MotionField]]:
    """Render one phantom video with per-frame masks and exact flow fields.

    The returned flow for frame t maps frame-t pixel coordinates back into
    frame 0: V(q) = (q - c) * (1/s(t) - 1), which is what a backward warp of
    frame 0 needs to reproduce frame t.
    """
    cx, cy = (p.width - 1) / 2.0, (p.height - 1) / 2.0
    crx = cx - p.rv_offset
    x = np.arange(p.width, dtype=np.float64)[None, :]
    y = np.arange(p.height, dtype=np.float64)[:, None]
    rng = np.random.default_rng(p.seed)

    ramp = 1.0 + p.intensity_gradient * (2.0 * x / (p.width - 1) - 1.0)

    frames = np.empty((p.frame_count, p.height, p.width), dtype=np.float64)
    masks: list[LabelMask] = []
    flows: list[MotionField] = []
    for t in range(p.frame_count):
        s = _scale_at(t, p.frame_count, p.contraction_amplitude)
        # pull each pixel back to its reference-frame position
        qx = cx + (x - cx) / s
        qy = cy + (y - cy) / s
        r = np.hypot(qx - cx, qy - cy)
        r_rv = np.hypot(qx - crx, qy - cy)

        labels = np.zeros((p.height, p.width), dtype=np.uint8)
        labels[r_rv <= p.rv_radius] = RV
        labels[r <= p.lv_radius + p.myo_thickness] = MYO
        labels[r <= p.lv_radius] = LV
        masks.append(LabelMask(labels, p.pixel_spacing_mm))

        # intensity model: one-pixel soft edges so gradients see the walls
        cov = lambda d: np.clip(0.5 - d, 0.0, 1.0)
        w_lv = cov(r - p.lv_radius)
        w_out = cov(r - (p.lv_radius + p.myo_thickness))
        w_myo = w_out * (1.0 - w_lv)
        w_rv = cov(r_rv - p.rv_radius) * (1.0 - w_out)
        img = (INTENSITY_BG
               + (INTENSITY_LV - INTENSITY_BG) * w_lv
               + (INTENSITY_MYO - INTENSITY_BG) * w_myo
               + (INTENSITY_RV - INTENSITY_BG) * w_rv) * ramp
        if p.noise_sigma > 0:
            img = img + rng.normal(0.0, p.noise_sigma, size=img.shape)
        frames[t] = img

        k = 1.0 / s - 1.0
        flows.append(MotionField(Tensor((x - cx) * k + 0.0 * y),
                                 Tensor((y - cy) * k + 0.0 * x)))

    video = Video(frames.astype(np.float32), p.pixel_spacing_mm,
                  video_id=f"phantom-{p.seed}")
    return video, masks, flows


def preprocess(video: Video, target_size: tuple[int, int]) -> Video:
    """Rescale intensities to [0, 255] globally, then center-crop or
    zero-pad each frame to target_size.

    A constant video cannot be rescaled; it becomes all zeros with a warning
    instead of dividing by zero.
    """
    th, tw = target_size
    if th < 1 or tw < 1:
        raise ValueError(f"target size must be positive, got {target_size}")
    frames = video.frames.astype(np.float64)
    lo, hi = float(frames.min()), float(frames.max())
    if hi > lo:
        frames = (frames - lo) * (255.0 / (hi - lo))
    else:
        warnings.warn(f"video '{video.video_id}' has constant intensity; "
                      "emitting zeros", stacklevel=2)
        frames = np.zeros_like(frames)

    t, h, w = frames.shape
    out = np.zeros((t, th, tw), dtype=np.float64)
    ch, cw = min(h, th), min(w, tw)
    src_y, src_x = (h - ch) // 2, (w - cw) // 2
    dst_y, dst_x = (th - ch) // 2, (tw - cw) // 2
    out[:, dst_y:dst_y + ch, dst_x:dst_x + cw] = \
        frames[:, src_y:src_y + ch, src_x:src_x + cw]
    return Video(out.astype(np.float32), video.pixel_spacing_mm, video.video_id)


# ---------------------------------------------------------------------------
# binary formats
# ---------------------------------------------------------------------------
#
# All integers are little-endian uint32, floats are little-endian IEEE 754.
#   video:      'FVID' | version | T H W | spacing_x spacing_y (f64) | f32 data
#   mask:       'FMSK' | version | H W   | spacing_x spacing_y (f64) | u8 data
#   checkpoint: 'FCKP' | version | count | per tensor:
#                   name_len | name utf-8 | ndim | dims... | f64 data


class _Cursor:
    def __init__(self, buf: bytes, path):
        self.buf = buf
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise FormatError(f"{self.path}: truncated at byte offset {self.pos}, "
                              f"needed {n} more bytes")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def expect_magic(self, magic: bytes) -> None:
        got = self.take(4)
        if got != magic:
            raise FormatError(f"{self.path}: bad magic {got!r} at byte offset 0, "
                              f"expected {magic!r}")
        version = self.u32()
        if version != FORMAT_VERSION:
            raise FormatError(f"{self.path}: unsupported version {version} "
                              f"at byte offset 4")

    def done(self) -> None:
        if self.pos != len(self.buf):
            raise FormatError(f"{self.path}: {len(self.buf) - self.pos} trailing "
                              f"bytes at byte offset {self.pos}")


def write_video(path, video: Video) -> None:
    t, h, w = video.frames.shape
    sx, sy = video.pixel_spacing_mm
    blob = b"FVID" + struct.pack("<IIII", FORMAT_VERSION, t, h, w)
    blob += struct.pack("<dd", sx, sy)
    blob += np.ascontiguousarray(video.frames, dtype="<f4").tobytes()
    Path(path).write_bytes(blob)


def _read_grid(path, magic: bytes, ndim: int, dtype: str, make):
    """make(payload, spacing) from an FVID or FMSK file (magic, version, `ndim`
    u32 dims, spacing as two f64, payload); any failure is a FormatError."""
    cur = _Cursor(Path(path).read_bytes(), path)
    cur.expect_magic(magic)
    dims = [cur.u32() for _ in range(ndim)]
    spacing = (cur.f64(), cur.f64())
    at = cur.pos  # the payload; the spacing is the 16 bytes before it
    data = np.frombuffer(cur.take(np.dtype(dtype).itemsize * math.prod(dims)), dtype=dtype)
    cur.done()
    if not np.isfinite(data).all():  # frames only: u8 labels are always finite
        bad = np.flatnonzero(~np.isfinite(data))[0]
        raise FormatError(f"{path}: non-finite frame value at byte offset "
                          f"{at + data.itemsize * bad}")
    try:
        _check_spacing(spacing, f"byte offset {at - 16}: ")
        return make(data.reshape(dims).copy(), spacing)
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from None


def read_video(path) -> Video:
    return _read_grid(path, b"FVID", 3, "<f4",
                      lambda data, spacing: Video(data, spacing, video_id=Path(path).stem))


def write_mask(path, mask: LabelMask) -> None:
    h, w = mask.labels.shape
    sx, sy = mask.pixel_spacing_mm
    blob = b"FMSK" + struct.pack("<III", FORMAT_VERSION, h, w)
    blob += struct.pack("<dd", sx, sy)
    blob += mask.labels.tobytes()
    Path(path).write_bytes(blob)


def read_mask(path) -> LabelMask:
    return _read_grid(path, b"FMSK", 2, "u1", LabelMask)


def write_checkpoint(path, params: ParamSet) -> None:
    parts = [b"FCKP", struct.pack("<II", FORMAT_VERSION, len(params))]
    for name, tensor in params.items():
        raw = name.encode("utf-8")
        arr = np.ascontiguousarray(tensor.data, dtype="<f8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.tobytes())
    Path(path).write_bytes(b"".join(parts))


def read_checkpoint(path) -> ParamSet:
    cur = _Cursor(Path(path).read_bytes(), path)
    cur.expect_magic(b"FCKP")
    count = cur.u32()
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        name_len = cur.u32()
        at = cur.pos
        try:
            name = cur.take(name_len).decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{path}: tensor name is not valid UTF-8 at byte "
                              f"offset {at + e.start}") from None
        ndim = cur.u32()
        dims = struct.unpack(f"<{ndim}I", cur.take(4 * ndim))
        size = math.prod(dims)  # exact: huge dims fail as truncation below
        at = cur.pos
        data = np.frombuffer(cur.take(8 * size), dtype="<f8").reshape(dims)
        bad = np.flatnonzero(~np.isfinite(data))
        if bad.size:
            raise FormatError(f"{path}: non-finite value in tensor '{name}' at byte "
                              f"offset {at + 8 * bad[0]}")
        if name in arrays:
            raise FormatError(f"{path}: duplicate tensor name '{name}'")
        arrays[name] = data.copy()
    cur.done()
    return ParamSet.from_arrays(arrays)


# ---------------------------------------------------------------------------
# dataset manifest
# ---------------------------------------------------------------------------

SPLIT_NAMES = ("baseline_train", "meta_train", "test_inside", "test_outside")


@dataclass
class ManifestEntry:
    video_id: str
    video_path: Path
    mask_paths: list[Path]
    category: str
    split: str


@dataclass
class DatasetSplit:
    """Manifest contents grouped by role; ids are globally unique."""

    baseline_train: list[ManifestEntry] = field(default_factory=list)
    meta_train: list[ManifestEntry] = field(default_factory=list)
    test_inside: list[ManifestEntry] = field(default_factory=list)
    test_outside: list[ManifestEntry] = field(default_factory=list)

    def all_entries(self) -> list[ManifestEntry]:
        return (self.baseline_train + self.meta_train
                + self.test_inside + self.test_outside)

    def of(self, split: str) -> list[ManifestEntry]:
        if split not in SPLIT_NAMES:
            raise ValueError(f"unknown split '{split}', expected one of {SPLIT_NAMES}")
        return getattr(self, split)


def _manifest_rel(p, root: Path) -> str:
    p = Path(p).resolve()
    try:
        return p.relative_to(root).as_posix()
    except ValueError:
        return p.as_posix()


def save_manifest(path, split: DatasetSplit) -> None:
    root = Path(path).resolve().parent
    entries = []
    for e in split.all_entries():
        entries.append({
            "id": e.video_id,
            "video": _manifest_rel(e.video_path, root),
            "masks": [_manifest_rel(m, root) for m in e.mask_paths],
            "category": e.category,
            "split": e.split,
        })
    Path(path).write_text(json.dumps({"videos": entries}, indent=2) + "\n")


def load_manifest(path) -> DatasetSplit:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: not valid JSON ({e})") from e
    if not isinstance(doc, dict) or not isinstance(doc.get("videos"), list):
        raise FormatError(f"{path}: manifest must be an object with a 'videos' list")

    out = DatasetSplit()
    seen: set[str] = set()
    for i, row in enumerate(doc["videos"]):
        if not isinstance(row, dict):
            raise FormatError(f"{path}: entry {i} is not an object")
        missing = {"id", "video", "masks", "category", "split"} - set(row)
        if missing:
            raise FormatError(f"{path}: entry {i} missing keys {sorted(missing)}")
        texts = [row[k] for k in ("id", "video", "category", "split")]
        masks = row["masks"] if isinstance(row["masks"], list) else [None]
        if not all(isinstance(v, str) for v in texts + masks):
            raise FormatError(f"{path}: entry {i} needs string values, 'masks' a list of them")
        if row["split"] not in SPLIT_NAMES:
            raise FormatError(f"{path}: entry {i} has unknown split "
                              f"'{row['split']}', expected one of {SPLIT_NAMES}")
        if row["id"] in seen:
            raise FormatError(f"{path}: duplicate video id '{row['id']}'")
        seen.add(row["id"])
        entry = ManifestEntry(
            video_id=row["id"],
            video_path=path.parent / row["video"],
            mask_paths=[path.parent / m for m in masks],
            category=row["category"],
            split=row["split"],
        )
        out.of(row["split"]).append(entry)
    return out


def load_entry(entry: ManifestEntry) -> tuple[Video, list[LabelMask]]:
    """Read an entry's video and masks, enforcing one mask per frame when
    masks are present at all."""
    video = read_video(entry.video_path)
    video.video_id = entry.video_id
    masks = [read_mask(m) for m in entry.mask_paths]
    if masks and len(masks) != video.frame_count:
        raise FormatError(f"{entry.video_id}: {len(masks)} masks for "
                          f"{video.frame_count} frames")
    for m in masks:
        if m.labels.shape != video.frame_shape:
            raise FormatError(f"{entry.video_id}: mask shape {m.labels.shape} "
                              f"!= frame shape {video.frame_shape}")
    return video, masks
