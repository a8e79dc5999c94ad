"""From raw head tensors to final boxes: letterbox, decoding, IoU, NMS."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ShapeError, UsageError, ValidationError
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


@dataclass(frozen=True, eq=False)
class Detections:
    """Detections as columns, one row each: what decode, NMS, the prediction
    file reader and writer, and the evaluator pass between them.

    ``names`` holds the sorted unique image ids and ``image`` each row's
    position in it (int64), so ordering rows by ``image`` orders them by
    image id. ``class_index`` is int64; ``score`` and the center-based box
    ``x``, ``y``, ``w``, ``h`` (pixels) are float64. Indexing and iterating
    give :class:`Detection` objects, for library callers, rendering and the
    oracles.
    """

    names: tuple[str, ...]
    image: np.ndarray
    class_index: np.ndarray
    score: np.ndarray
    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    h: np.ndarray

    @classmethod
    def of(cls, detections) -> Detections:
        """``detections`` itself when it is columnar, else its columns."""
        if isinstance(detections, Detections):
            return detections
        n = len(detections)
        names = sorted({d.image_id for d in detections})
        code = {name: k for k, name in enumerate(names)}

        def column(values, dtype=np.float64):
            return np.fromiter(values, dtype, n)

        return cls(
            tuple(names), column((code[d.image_id] for d in detections), np.int64),
            column((d.class_index for d in detections), np.int64),
            column(d.score for d in detections), column(d.box.x for d in detections),
            column(d.box.y for d in detections), column(d.box.w for d in detections),
            column(d.box.h for d in detections),
        )

    @classmethod
    def concat(cls, parts) -> Detections:
        """The rows of each part in turn, image codes remapped to the merged names."""
        parts = list(parts) or [cls.of([])]
        names = sorted(set().union(*(p.names for p in parts)))
        code = {name: k for k, name in enumerate(names)}
        image = np.concatenate([np.array([code[name] for name in p.names], np.int64)[p.image]
                                for p in parts])
        return cls(tuple(names), image, *(
            np.concatenate([getattr(p, f) for p in parts])
            for f in ("class_index", "score", "x", "y", "w", "h")
        ))

    def take(self, rows) -> Detections:
        """The rows at ``rows`` (an index or mask array), same names."""
        return Detections(self.names, self.image[rows], self.class_index[rows],
                          self.score[rows], self.x[rows], self.y[rows], self.w[rows],
                          self.h[rows])

    def image_ids(self) -> list[str]:
        """Each row's image id."""
        return list(map(self.names.__getitem__, self.image.tolist()))

    def __len__(self) -> int:
        return len(self.score)

    def __getitem__(self, k: int) -> Detection:
        return Detection(self.names[self.image[k]], int(self.class_index[k]),
                         float(self.score[k]), Box(float(self.x[k]), float(self.y[k]),
                                                   float(self.w[k]), float(self.h[k])))

    def rows(self):
        """Each row as ``(image_id, class_index, score, x, y, w, h)`` Python values."""
        return zip(self.image_ids(), self.class_index.tolist(), self.score.tolist(),
                   self.x.tolist(), self.y.tolist(), self.w.tolist(), self.h.tolist())

    def __iter__(self):
        for image_id, cls, score, x, y, w, h in self.rows():
            yield Detection(image_id, cls, score, Box(x, y, w, h))


@dataclass(frozen=True)
class LetterboxTransform:
    """Affine map between original-image and network-input pixel frames."""

    scale: float
    pad_x: float
    pad_y: float

    def original_xywh(self, x, y, w, h):
        """Input-frame centers and extents (scalars or arrays) in the original frame."""
        return ((x - self.pad_x) / self.scale, (y - self.pad_y) / self.scale,
                w / self.scale, h / self.scale)


IDENTITY_TRANSFORM = LetterboxTransform(1.0, 0.0, 0.0)


def letterbox(image: np.ndarray, target: int) -> tuple[np.ndarray, LetterboxTransform]:
    """Aspect-preserving nearest-neighbor resize onto a centered square canvas."""
    image = check_tensor(image, rank=3, name="image")
    if target < 1:
        raise UsageError(f"letterbox target {target} must be positive")
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


class HeadArrays(NamedTuple):
    """One head read through the YOLO head: float64, each (3, rows, cols).

    Per cell and anchor: the cell offsets sigmoid(t_xy), the centers
    (offset + cell) * stride and the extents anchor * exp(t_wh) in input
    pixels, the objectness sigmoid(t_o) and, (3, C, rows, cols), the class
    probabilities sigmoid(t_c).
    """

    off_x: np.ndarray
    off_y: np.ndarray
    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    h: np.ndarray
    objectness: np.ndarray
    class_probs: np.ndarray


def read_head(head: HeadOutput) -> HeadArrays:
    """The one decoding of a head's raw map, shared by detect and the loss."""
    rows, cols = head.grid
    raw = head.raw.reshape(3, 5 + head.num_classes, rows, cols).astype(np.float64, copy=False)
    # elementwise, so one call over every channel (t_wh included) gives the
    # bits of one call per channel, with less per-call overhead
    probs = sigmoid(raw)
    extents = np.array(head.anchors, dtype=np.float64)[:, :, None, None] * np.exp(raw[:, 2:4])
    return HeadArrays(
        probs[:, 0],
        probs[:, 1],
        (probs[:, 0] + np.arange(cols)) * head.stride,
        (probs[:, 1] + np.arange(rows)[:, None]) * head.stride,
        extents[:, 0],
        extents[:, 1],
        probs[:, 4],
        probs[:, 5:],
    )


def check_conf_threshold(conf_threshold: float) -> None:
    """The decode confidence threshold's range, [0, 1): a ValidationError outside it."""
    if not 0 <= conf_threshold < 1:
        raise ValidationError(f"conf_threshold must be in [0, 1), got {conf_threshold}")


def decode(head: HeadOutput, conf_threshold: float, transform: LetterboxTransform,
           image_id: str) -> Detections:
    """Decode one head into detections above the confidence threshold.

    The head is read by :func:`read_head`. The emitted score is objectness *
    class probability for the argmax class; boxes are mapped back to
    original-image coordinates. Rows follow the head's (anchor, row, col)
    order.
    """
    check_conf_threshold(conf_threshold)
    with np.errstate(over="ignore"):  # an extent that overflows is dropped below
        pred = read_head(head)
    class_probs = pred.class_probs
    best_class = class_probs.argmax(axis=1)
    best_prob = np.take_along_axis(class_probs, best_class[:, None], axis=1)[:, 0]
    scores = pred.objectness * best_prob

    a, i, j = np.nonzero(scores >= conf_threshold)
    # exp underflows to 0 below ~-745; floor the extents to keep boxes valid
    xs, ys, ws, hs = transform.original_xywh(
        pred.x[a, i, j], pred.y[a, i, j],
        np.maximum(pred.w[a, i, j], 1e-9), np.maximum(pred.h[a, i, j], 1e-9),
    )
    # and overflows to inf above ~709: such a box has no finite extent to keep
    finite = np.isfinite(ws) & np.isfinite(hs)
    if not finite.all():
        a, i, j, xs, ys, ws, hs = (v[finite] for v in (a, i, j, xs, ys, ws, hs))
    return Detections((image_id,), np.zeros(len(a), dtype=np.int64),
                      best_class[a, i, j].astype(np.int64), scores[a, i, j], xs, ys, ws, hs)


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


def corner_table(x, y, w, h) -> np.ndarray:
    """Rows x1, y1, x2, y2, area of box columns, with the arithmetic of ``Box.corners``."""
    return np.array([x - w / 2, y - h / 2, x + w / 2, y + h / 2, w * h])


def iou_grid(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of the boxes of corner tables ``a`` and ``b``, paired by broadcasting.

    ``a[:, :, None]`` against ``b`` gives every column of ``a`` with every
    column of ``b``; a table against one box ``b[:, k]`` gives one IoU per
    column. The arithmetic of :func:`iou` (``a`` in its first argument), so
    each entry equals the scalar result; the union is positive, so no
    division by zero.
    """
    iw = np.minimum(a[2], b[2]) - np.maximum(a[0], b[0])
    ih = np.minimum(a[3], b[3]) - np.maximum(a[1], b[1])
    inter = np.maximum(iw, 0.0, out=iw)
    inter *= np.maximum(ih, 0.0, out=ih)  # 0, so IoU 0, unless both > 0
    return inter / (a[4] + b[4] - inter)


def check_nms_threshold(iou_threshold: float) -> None:
    """The NMS IoU threshold's range, (0, 1): a ValidationError outside it."""
    if not 0 < iou_threshold < 1:
        raise ValidationError(f"iou_threshold must be in (0, 1), got {iou_threshold}")


def nms(detections, iou_threshold: float):
    """Greedy per-class suppression of overlapping lower-scored boxes.

    Takes and returns :class:`Detections`; a list of :class:`Detection`
    gives the list of its kept objects. Within a class, detections are
    visited by descending score (equal scores keep input order); a detection
    is kept unless its IoU with an already kept same-class detection exceeds
    the threshold. Output is ordered by (score desc, class, input position).
    Each kept box suppresses with one :func:`iou_grid` row against the later
    boxes of its class, so every decision equals the scalar loop's
    (``oracles.nms_loop``) bit for bit.
    """
    check_nms_threshold(iou_threshold)
    table = Detections.of(detections)
    n = len(table)
    # input positions grouped by class, then by score desc and position
    order = np.lexsort((np.arange(n), -table.score, table.class_index))
    cls = table.class_index[order]
    corners = corner_table(table.x[order], table.y[order], table.w[order], table.h[order])
    class_end = np.searchsorted(cls, cls, side="right")
    alive = np.ones(n, dtype=bool)
    for k in range(n):
        if not alive[k]:
            continue
        rest = slice(k + 1, class_end[k])
        alive[rest] &= iou_grid(corners[:, rest], corners[:, k]) <= iou_threshold
    kept = order[alive]
    kept = kept[np.lexsort((kept, table.class_index[kept], -table.score[kept]))]
    if table is detections:
        return table.take(kept)
    return [detections[p] for p in kept.tolist()]
