"""Segmentation-transfer metrics: label warping, Dice, Hausdorff distance.

Tracking quality is scored by pushing a source-frame segmentation through
the predicted motion field and comparing it with the reference-frame
segmentation. Dice is unitless overlap; Hausdorff is the worst
contour-to-contour distance in millimetres using the mask's pixel spacing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import nan

import numpy as np

from foal import network as N
from foal import tensor as T
from foal.data import LabelMask, NUM_LABELS, Video
from foal.losses import bilinear_gather
from foal.network import NetConfig, ParamSet


@dataclass(frozen=True)
class MetricsReport:
    """Per-label scores for one (source, reference) evaluation.

    hausdorff_mm is NaN when either contour is empty; `present` is False
    when the label is missing from both masks."""

    dice: dict[int, float]
    hausdorff_mm: dict[int, float]
    present: dict[int, bool]


def warp_mask(mask: LabelMask, vx: np.ndarray, vy: np.ndarray) -> LabelMask:
    """Backward-warp a label image along one flow given as [H,W] arrays of
    horizontal and vertical displacement in pixels.

    Labels are one-hot encoded, all planes are sampled bilinearly at one set
    of corners with the same border-clamp rule as image warping, and the
    result is re-labelled by argmax (ties resolve to the lowest label index).
    """
    labels = mask.labels
    if not vx.shape == vy.shape == labels.shape:
        raise ValueError(f"flow shapes {vx.shape} and {vy.shape} != mask shape {labels.shape}")
    h, w = labels.shape
    sx = vx + np.arange(w, dtype=np.float64)[None, :]
    sy = vy + np.arange(h, dtype=np.float64)[:, None]
    onehot = labels == np.arange(NUM_LABELS)[:, None, None, None]  # [L,1,H,W]
    scores = bilinear_gather(onehot.astype(np.float64), sx[None], sy[None])[0]
    return LabelMask(np.argmax(scores[:, 0], axis=0).astype(np.uint8),
                     mask.pixel_spacing_mm)


def dice(a: LabelMask, b: LabelMask, label: int) -> float:
    """2|A and B| / (|A| + |B|); 1.0 when both masks lack the label, 0.0 when
    exactly one does."""
    if a.labels.shape != b.labels.shape:
        raise ValueError(f"mask shapes {a.labels.shape} and {b.labels.shape} differ")
    in_a = a.labels == label
    in_b = b.labels == label
    na, nb = int(in_a.sum()), int(in_b.sum())
    if na == 0 and nb == 0:
        return 1.0
    if na == 0 or nb == 0:
        return 0.0
    return 2.0 * int((in_a & in_b).sum()) / (na + nb)


def contour_points(mask: LabelMask, label: int) -> np.ndarray:
    """Pixels of `label` that touch a different label by 4-adjacency or lie
    on the image border. Returns [K, 2] (row, col) coordinates."""
    m = mask.labels == label
    h, w = m.shape
    inner = np.zeros_like(m)
    if h > 2 and w > 2:
        inner[1:-1, 1:-1] = (m[1:-1, 1:-1]
                             & m[:-2, 1:-1] & m[2:, 1:-1]
                             & m[1:-1, :-2] & m[1:-1, 2:])
    edge = m & ~inner
    return np.argwhere(edge)


def hausdorff(a: LabelMask, b: LabelMask, label: int) -> float:
    """Symmetric contour-to-contour Hausdorff distance in millimetres: the
    max over both contours of the distance to the nearest point of the other.
    NaN when either contour is empty.
    """
    if a.labels.shape != b.labels.shape:
        raise ValueError(f"mask shapes {a.labels.shape} and {b.labels.shape} differ")
    if a.pixel_spacing_mm != b.pixel_spacing_mm:
        raise ValueError(f"pixel spacings {a.pixel_spacing_mm} and "
                         f"{b.pixel_spacing_mm} differ")
    ca = contour_points(a, label)
    cb = contour_points(b, label)
    if len(ca) == 0 or len(cb) == 0:
        return nan
    sx, sy = a.pixel_spacing_mm
    scale = np.array([sy, sx], dtype=np.float64)  # rows are y, cols are x
    pa = ca * scale
    pb = cb * scale
    d2 = np.square(pa[:, None, 0] - pb[None, :, 0])  # [Ka, Kb], one axis at a time
    d2 += np.square(pa[:, None, 1] - pb[None, :, 1])
    return float(np.sqrt(max(d2.min(axis=1).max(), d2.min(axis=0).max())))


def evaluate_video(cfg: NetConfig, params: ParamSet, video: Video,
                   masks: list[LabelMask]) -> MetricsReport:
    """Score ED-to-ES segmentation transfer for one video.

    Predicts flow from frame 0 (end-diastole) to frame T // 2 (end-systole,
    mid-sequence), warps frame 0's mask along it, and compares the result
    with frame T // 2's mask for each foreground label (RV, MYO, LV). Runs
    off-tape; nothing here needs gradients.
    """
    t = video.frame_count
    if len(masks) != t:
        raise ValueError(f"video '{video.video_id}': need one mask per frame, "
                         f"got {len(masks)} for {t}")

    with T.no_grad():
        flow = N.predict_flow(cfg, params, video.frames[[0]], video.frames[[t // 2]])
    warped = warp_mask(masks[0], flow.vx.data[0], flow.vy.data[0])
    truth = masks[t // 2]

    dice_by: dict[int, float] = {}
    haus_by: dict[int, float] = {}
    present: dict[int, bool] = {}
    for lab in range(1, NUM_LABELS):
        dice_by[lab] = dice(warped, truth, lab)
        haus_by[lab] = hausdorff(warped, truth, lab)
        present[lab] = bool((warped.labels == lab).any()
                            or (truth.labels == lab).any())
    return MetricsReport(dice_by, haus_by, present)
