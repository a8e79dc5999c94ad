"""From raw head tensors to final boxes: letterbox, decoding, IoU, NMS."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, UsageError
from .network import HeadOutput
from .ops import check_tensor, sigmoid

PAD_VALUE = 0.5  # gray fill for letterbox borders


@dataclass(frozen=True)
class Box:
    """Axis-aligned box: center (x, y) and positive extents (w, h), pixels."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        if self.w <= 0 or self.h <= 0:
            raise ShapeError(f"box extents must be positive, got {self.w}x{self.h}")

    def corners(self) -> tuple[float, float, float, float]:
        return (
            self.x - self.w / 2,
            self.y - self.h / 2,
            self.x + self.w / 2,
            self.y + self.h / 2,
        )


@dataclass(frozen=True)
class Detection:
    image_id: str
    class_index: int
    score: float
    box: Box


@dataclass(frozen=True)
class LetterboxTransform:
    """Affine map between original-image and network-input pixel frames."""

    scale: float
    pad_x: float
    pad_y: float

    def to_input(self, box: Box) -> Box:
        return Box(
            box.x * self.scale + self.pad_x,
            box.y * self.scale + self.pad_y,
            box.w * self.scale,
            box.h * self.scale,
        )

    def to_original(self, box: Box) -> Box:
        return Box(
            (box.x - self.pad_x) / self.scale,
            (box.y - self.pad_y) / self.scale,
            box.w / self.scale,
            box.h / self.scale,
        )


IDENTITY_TRANSFORM = LetterboxTransform(1.0, 0.0, 0.0)


def letterbox(image: np.ndarray, target: int) -> tuple[np.ndarray, LetterboxTransform]:
    """Aspect-preserving nearest-neighbor resize onto a centered square canvas."""
    image = check_tensor(image, rank=3, name="image")
    if target % 32:
        raise UsageError(f"letterbox target {target} must be divisible by 32")
    c, h, w = image.shape
    scale = target / max(h, w)
    new_h = max(1, round(h * scale))
    new_w = max(1, round(w * scale))
    rows = np.clip(((np.arange(new_h) + 0.5) / scale).astype(int), 0, h - 1)
    cols = np.clip(((np.arange(new_w) + 0.5) / scale).astype(int), 0, w - 1)
    resized = image[:, rows[:, None], cols[None, :]]
    pad_y = (target - new_h) // 2
    pad_x = (target - new_w) // 2
    canvas = np.full((c, target, target), PAD_VALUE, dtype=image.dtype)
    canvas[:, pad_y : pad_y + new_h, pad_x : pad_x + new_w] = resized
    return canvas, LetterboxTransform(scale, float(pad_x), float(pad_y))


def decode(head: HeadOutput, conf_threshold: float, transform: LetterboxTransform,
           image_id: str) -> list[Detection]:
    """Decode one head into detections above the confidence threshold.

    Per cell and anchor: center = (sigmoid(t_xy) + cell) * stride, size =
    anchor * exp(t_wh), objectness and class probabilities through sigmoid.
    The emitted score is objectness * class probability for the argmax
    class; boxes are mapped back to original-image coordinates.
    """
    if not 0 <= conf_threshold < 1:
        raise UsageError(f"conf_threshold must be in [0, 1), got {conf_threshold}")
    rows, cols = head.grid
    c = head.num_classes
    raw = head.raw.reshape(3, 5 + c, rows, cols).astype(np.float64)

    col_grid = np.arange(cols)[None, None, :]
    row_grid = np.arange(rows)[None, :, None]
    bx = (sigmoid(raw[:, 0]) + col_grid) * head.stride
    by = (sigmoid(raw[:, 1]) + row_grid) * head.stride
    anchor_w = np.array([a[0] for a in head.anchors])[:, None, None]
    anchor_h = np.array([a[1] for a in head.anchors])[:, None, None]
    # exp underflows to 0 below ~-745; floor the extents to keep boxes valid
    bw = np.maximum(anchor_w * np.exp(raw[:, 2]), 1e-9)
    bh = np.maximum(anchor_h * np.exp(raw[:, 3]), 1e-9)
    objectness = sigmoid(raw[:, 4])
    class_probs = sigmoid(raw[:, 5:])
    best_class = class_probs.argmax(axis=1)
    best_prob = np.take_along_axis(class_probs, best_class[:, None], axis=1)[:, 0]
    scores = objectness * best_prob

    a, i, j = np.nonzero(scores >= conf_threshold)
    # LetterboxTransform.to_original on arrays: the same operations, so the same bits
    xs = ((bx[a, i, j] - transform.pad_x) / transform.scale).tolist()
    ys = ((by[a, i, j] - transform.pad_y) / transform.scale).tolist()
    ws = (bw[a, i, j] / transform.scale).tolist()
    hs = (bh[a, i, j] / transform.scale).tolist()
    return [
        Detection(image_id, cls, score, Box(x, y, w, h))
        for cls, score, x, y, w, h in zip(best_class[a, i, j].tolist(),
                                           scores[a, i, j].tolist(), xs, ys, ws, hs)
    ]


def iou(a: Box, b: Box) -> float:
    """Intersection-over-union of two boxes; 0 when disjoint."""
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.w * a.h + b.w * b.h - inter
    return float(inter / union)


def nms(detections: list[Detection], iou_threshold: float) -> list[Detection]:
    """Greedy per-class suppression of overlapping lower-scored boxes.

    Within a class, detections are visited by descending score (equal scores
    keep input order); a detection is kept unless its IoU with an already
    kept same-class detection exceeds the threshold. Output is ordered by
    (score desc, class, input position). Each kept box suppresses with one
    vectorised IoU row against the later boxes of its class, computed with
    the arithmetic of :func:`iou`, so every decision equals the scalar
    loop's (``oracles.nms_loop``) bit for bit.
    """
    if not 0 < iou_threshold < 1:
        raise UsageError(f"iou_threshold must be in (0, 1), got {iou_threshold}")
    if not detections:
        return []
    table = np.array(
        [(d.class_index, d.score, d.box.x, d.box.y, d.box.w, d.box.h) for d in detections],
        dtype=np.float64,
    )
    # input positions grouped by class, then by score desc and position
    order = np.lexsort((np.arange(len(table)), -table[:, 1], table[:, 0]))
    cls, _, x, y, w, h = table[order].T
    x1, y1, x2, y2 = x - w / 2, y - h / 2, x + w / 2, y + h / 2
    area = w * h
    class_end = np.searchsorted(cls, cls, side="right")
    alive = np.ones(len(table), dtype=bool)
    for k in range(len(table)):
        if not alive[k]:
            continue
        rest = slice(k + 1, class_end[k])
        iw = np.minimum(x2[rest], x2[k]) - np.maximum(x1[rest], x1[k])
        ih = np.minimum(y2[rest], y2[k]) - np.maximum(y1[rest], y1[k])
        inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)  # 0, so IoU 0, unless both > 0
        alive[rest] &= inter / (area[rest] + area[k] - inter) <= iou_threshold
    kept = order[alive]
    kept = kept[np.lexsort((kept, table[kept, 0], -table[kept, 1]))]
    return [detections[p] for p in kept.tolist()]
