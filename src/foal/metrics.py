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
from foal.network import MotionField, NetConfig, ParamSet


@dataclass(frozen=True)
class MetricsReport:
    """Per-label scores for one (source, reference) evaluation.

    hausdorff_mm is NaN when either contour is empty; `present` is False
    when the label is missing from both masks."""

    dice: dict[int, float]
    hausdorff_mm: dict[int, float]
    present: dict[int, bool]


def warp_mask(mask: LabelMask, flow: MotionField) -> LabelMask:
    """Backward-warp a label image along an [H,W] flow (one pair, unbatched).

    Labels are one-hot encoded, each plane is sampled bilinearly with the
    same border-clamp rule as image warping, and the result is re-labelled
    by argmax (ties resolve to the lowest label index).
    """
    labels = mask.labels
    vx, vy = flow.arrays()
    if vx.shape != labels.shape:
        raise ValueError(f"flow shape {vx.shape} != mask shape {labels.shape}")
    h, w = labels.shape
    sx = vx + np.arange(w, dtype=np.float64)[None, :]
    sy = vy + np.arange(h, dtype=np.float64)[:, None]

    scores = np.empty((NUM_LABELS, h, w))
    for lab in range(NUM_LABELS):
        plane = (labels == lab).astype(np.float64)[None]
        scores[lab] = bilinear_gather(plane, sx[None], sy[None])[0][0]
    return LabelMask(np.argmax(scores, axis=0).astype(np.uint8),
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


def hausdorff(a: LabelMask, b: LabelMask, label: int,
              symmetric: bool = True) -> float:
    """Contour-to-contour Hausdorff distance in millimetres.

    Directed form: max over a's contour of the distance to the nearest b
    contour point. The symmetric default takes the max of both directions.
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
    d2 = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2)
    fwd = float(np.sqrt(d2.min(axis=1).max()))
    if not symmetric:
        return fwd
    bwd = float(np.sqrt(d2.min(axis=0).max()))
    return max(fwd, bwd)


def evaluate_video(cfg: NetConfig, params: ParamSet, video: Video,
                   masks: list[LabelMask], source_index: int | None = None,
                   reference_index: int | None = None) -> MetricsReport:
    """Score ED-to-ES segmentation transfer for one video.

    Predicts flow from the source frame (default 0) to the reference frame
    (default the mid-sequence frame), warps the source mask, and compares it
    with the reference mask per label. Runs off-tape; nothing here needs
    gradients.
    """
    src = 0 if source_index is None else source_index
    ref = video.frame_count // 2 if reference_index is None else reference_index
    t = video.frame_count
    if not (0 <= src < t and 0 <= ref < t) or src == ref:
        raise ValueError(f"invalid frame pair ({src}, {ref}) for {t} frames")
    if len(masks) != t:
        raise ValueError(f"need one mask per frame, got {len(masks)} for {t}")

    with T.no_grad():
        flow = N.predict_flow(cfg, params, video.frames[[src]], video.frames[[ref]])
    vx, vy = flow.arrays()  # one pair: row 0 of the [1,H,W] field
    warped = warp_mask(masks[src], MotionField(T.Tensor(vx[0]), T.Tensor(vy[0])))
    truth = masks[ref]

    dice_by: dict[int, float] = {}
    haus_by: dict[int, float] = {}
    present: dict[int, bool] = {}
    for lab in range(1, NUM_LABELS):
        dice_by[lab] = dice(warped, truth, lab)
        haus_by[lab] = hausdorff(warped, truth, lab)
        present[lab] = bool((warped.labels == lab).any()
                            or (truth.labels == lab).any())
    return MetricsReport(dice_by, haus_by, present)
