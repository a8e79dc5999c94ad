"""Detection quality metrics: matching, precision/recall, AP and mAP at IoU 0.5.

Ground truth arrives as VisDrone-style per-image annotation files
(``x,y,w,h,score,category,truncation,occlusion`` with top-left corners);
predictions as one text file with ``image_id class score x y w h`` lines
(center-based, pixels). Matching is greedy by descending score per (image,
class) pair, one numpy IoU grid per pair; detections that only overlap
ignore-flagged regions are discarded from both counts. AP uses all-point
right-envelope interpolation and mAP averages the classes that actually
appear in the ground truth.

Both are read into columns, :class:`~yolokit.detect.Detections` and
:class:`GroundTruth`, which the matcher and the evaluator work on;
``Detection`` and ``GroundTruthBox`` objects are accepted at the edges.

Everything is deterministic under input shuffling: equal scores are ordered
by image id, then box coordinates, lexicographically.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .cfg import check_num_classes
from .detect import Box, Detection, Detections, corner_table, iou_grid
from .errors import AnnotationError, ValidationError

VISDRONE_CLASS_NAMES = (
    "pedestrian",
    "people",
    "bicycle",
    "car",
    "van",
    "truck",
    "tricycle",
    "awning-tricycle",
    "bus",
    "motor",
)

_IGNORED_CATEGORIES = (0, 11)  # ignored regions / others


@dataclass(frozen=True)
class GroundTruthBox:
    image_id: str
    class_index: int  # -1 on ignore-flagged boxes
    box: Box
    ignore: bool = False


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Ground-truth boxes as columns, the evaluator's form of them.

    As in :class:`~yolokit.detect.Detections`: ``names`` holds the sorted
    unique image ids and ``image`` each row's position in it; ``class_index``
    is int64 (-1 on the ignore regions read from annotation files),
    ``ignore`` flags the ignore regions and ``x``, ``y``, ``w``, ``h`` are
    float64 center-based boxes in pixels.
    """

    names: tuple[str, ...]
    image: np.ndarray
    class_index: np.ndarray
    ignore: np.ndarray
    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    h: np.ndarray

    @classmethod
    def of(cls, ground_truth) -> GroundTruth:
        """``ground_truth`` itself when it is columnar, else the columns of its boxes."""
        if isinstance(ground_truth, GroundTruth):
            return ground_truth
        names = sorted({g.image_id for g in ground_truth})
        code = {name: k for k, name in enumerate(names)}
        return cls._from_rows(names, [
            (code[g.image_id], g.class_index, g.ignore, g.box.x, g.box.y, g.box.w, g.box.h)
            for g in ground_truth
        ])

    @classmethod
    def _from_rows(cls, names, rows) -> GroundTruth:
        """Columns of (image code, class, ignore, x, y, w, h) rows."""
        table = np.array(rows, dtype=np.float64).reshape(-1, 7).T
        image, classes, ignore, x, y, w, h = table
        return cls(tuple(names), image.astype(np.int64), classes.astype(np.int64),
                   ignore != 0, x, y, w, h)


def _visdrone_rows(text: str) -> list[tuple[int, bool, float, float, float, float]]:
    """(class, ignore, center x, center y, w, h) of each annotation line."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = [tok.strip() for tok in line.split(",")]
        if len(fields) != 8:
            raise AnnotationError(f"expected 8 comma-separated fields, got {len(fields)}", lineno)
        try:
            x, y, w, h = (float(fields[i]) for i in range(4))
            category = int(fields[5])
        except ValueError as exc:
            raise AnnotationError(str(exc), lineno) from None
        for name, value in zip("xywh", (x, y, w, h)):
            if not math.isfinite(value):
                raise AnnotationError(f"non-finite {name} {value}", lineno)
        if w <= 0 or h <= 0:
            raise AnnotationError(f"non-positive box extent {w}x{h}", lineno)
        if category in _IGNORED_CATEGORIES:
            rows.append((-1, True, x + w / 2, y + h / 2, w, h))
        elif 1 <= category <= 10:
            rows.append((category - 1, False, x + w / 2, y + h / 2, w, h))
        else:
            raise AnnotationError(f"category {category} outside 0..11", lineno)
    return rows


def parse_visdrone(text: str, image_id: str) -> list[GroundTruthBox]:
    """Parse one annotation file's text into ground-truth boxes."""
    return [GroundTruthBox(image_id, cls, Box(x, y, w, h), ignore)
            for cls, ignore, x, y, w, h in _visdrone_rows(text)]


def format_visdrone(boxes: list[GroundTruthBox]) -> str:
    """Inverse of parse_visdrone (score 1, truncation/occlusion 0)."""
    lines = []
    for gt in boxes:
        category = 0 if gt.ignore else gt.class_index + 1
        x = gt.box.x - gt.box.w / 2
        y = gt.box.y - gt.box.h / 2
        lines.append(f"{x:g},{y:g},{gt.box.w:g},{gt.box.h:g},1,{category},0,0")
    return "\n".join(lines) + ("\n" if lines else "")


def load_ground_truth(directory) -> GroundTruth:
    """Read every ``*.txt`` in a directory; the file stem is the image id."""
    files = sorted(name for name in os.listdir(directory) if name.endswith(".txt"))
    names = sorted(name[:-4] for name in files)
    code = {name: k for k, name in enumerate(names)}
    rows = []
    for name in files:
        path = os.path.join(directory, name)
        with open(path, encoding="utf-8") as fh:
            try:
                image = code[name[:-4]]
                rows.extend((image, *row) for row in _visdrone_rows(fh.read()))
            except AnnotationError as exc:
                wrapped = AnnotationError(f"{path}: {exc}")
                wrapped.line = exc.line
                raise wrapped from None
    return GroundTruth._from_rows(names, rows)


# Lines split per block. Any size gives the same result; a small one bounds
# the token lists alive at once, and with them the time the cyclic garbage
# collector spends walking them (32k-line blocks parsed a 274k-line file
# ~1.6x slower than 4k-line ones).
PARSE_BLOCK_LINES = 1 << 12

_PREDICTION_FLOATS = ("score", "x", "y", "w", "h")
_INT64_MAX = np.iinfo(np.int64).max


def _prediction_columns(rows: list[list[str]]):
    """(image ids, class, score, x, y, w, h) of split lines; blank lines are skipped.

    Raises AnnotationError, without a line number, if any line is bad; on a
    one-line block its message is that line's first failing check. The
    checks, in order: 7 fields, an int class and float values
    (``int``/``float`` semantics), a class in 0..2**63-1, finite values, a
    score in [0, 1] and positive extents.
    """
    sizes = set(map(len, rows))
    if sizes - {0, 7}:
        raise AnnotationError(f"expected 7 space-separated fields, got {min(sizes - {0, 7})}")
    if 0 in sizes:
        rows = list(filter(None, rows))
    n = len(rows)
    ids, classes, *tokens = zip(*rows) if n else ((),) * 7
    too_large = False
    try:
        cls = np.fromiter(map(int, classes), np.int64, n)
    except OverflowError:  # a valid int beyond int64; reported after the floats parse
        too_large = True
    except ValueError as exc:
        raise AnnotationError(str(exc)) from None
    try:
        values = [np.fromiter(map(float, column), np.float64, n) for column in tokens]
    except ValueError as exc:
        raise AnnotationError(str(exc)) from None
    if too_large:
        big = next(v for v in map(int, classes) if not -_INT64_MAX - 1 <= v <= _INT64_MAX)
        raise AnnotationError(f"negative class index {big}" if big < 0
                              else f"class index {big} too large")
    if (cls < 0).any():
        raise AnnotationError(f"negative class index {cls[cls < 0][0]}")
    for name, column in zip(_PREDICTION_FLOATS, values):
        bad = ~np.isfinite(column)
        if bad.any():
            raise AnnotationError(f"non-finite {name} {float(column[bad][0])}")
    score, x, y, w, h = values
    bad = (score < 0) | (score > 1)
    if bad.any():
        raise AnnotationError(f"score {float(score[bad][0])} outside [0, 1]")
    bad = (w <= 0) | (h <= 0)
    if bad.any():
        k = np.flatnonzero(bad)[0]
        raise AnnotationError(f"non-positive box extent {float(w[k])}x{float(h[k])}")
    return ids, cls, score, x, y, w, h


def _parse_block(rows: list[list[str]], first_line: int):
    """:func:`_prediction_columns`, with the first bad line's number on errors.

    A bad block is bisected to its first bad line, whose message is the
    checks' verdict on that line alone.
    """
    try:
        return _prediction_columns(rows)
    except AnnotationError:
        pass
    lo, hi = 0, len(rows)  # rows[lo:hi] holds the first bad line
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _prediction_columns(rows[lo:mid])
            lo = mid
        except AnnotationError:
            hi = mid
    try:
        _prediction_columns(rows[lo:hi])
    except AnnotationError as exc:
        raise AnnotationError(str(exc), first_line + lo) from None
    raise AssertionError("a bad block without a bad line")


def parse_predictions(text: str) -> Detections:
    """Parse ``image_id class_index score x y w h`` lines into columns.

    Values are read with Python's ``int`` and ``float``; blank lines are
    skipped. A bad line raises :class:`AnnotationError` naming its line
    number and its first failing check (see :func:`_prediction_columns`).
    """
    lines = text.splitlines()
    first_seen: dict[str, int] = {}  # image id -> code in order of appearance
    blocks = []
    for start in range(0, len(lines), PARSE_BLOCK_LINES):
        rows = [line.split() for line in lines[start : start + PARSE_BLOCK_LINES]]
        ids, *columns = _parse_block(rows, start + 1)
        for image_id in dict.fromkeys(ids):
            first_seen.setdefault(image_id, len(first_seen))
        blocks.append((np.fromiter(map(first_seen.__getitem__, ids), np.int64, len(ids)),
                       *columns))
    if not blocks:
        return Detections.of([])
    names = sorted(first_seen)
    rank = np.empty(len(names), dtype=np.int64)
    rank[[first_seen[name] for name in names]] = np.arange(len(names))
    image, *columns = (np.concatenate(parts) for parts in zip(*blocks))
    return Detections(tuple(names), rank[image], *columns)


def format_predictions(detections) -> str:
    """One ``image_id class_index score x y w h`` line per detection.

    Takes :class:`Detections` or a list of :class:`Detection`. Values are
    written as Python ``int``/``float`` reprs, so numpy scalars produce the
    same text as the Python numbers they hold.
    """
    lines = [
        f"{image_id} {cls} {score!r} {x!r} {y!r} {w!r} {h!r}"
        for image_id, cls, score, x, y, w, h in Detections.of(detections).rows()
    ]
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True, eq=False)
class Labeled:
    """The detections :func:`match` kept, in canonical order, with their TP flags.

    Iterates as ``(row, is_tp)`` pairs, each row the plain tuple of
    :meth:`Detections.rows`: a pass over the labels builds no objects per
    detection.
    """

    detections: Detections
    is_tp: np.ndarray

    def __len__(self) -> int:
        return len(self.is_tp)

    def __iter__(self):
        return zip(self.detections.rows(), self.is_tp.tolist())


def _recode(names, merged) -> np.ndarray:
    """Position in ``merged`` of each of ``names``."""
    code = {name: k for k, name in enumerate(merged)}
    return np.array([code[name] for name in names], dtype=np.int64)


def _match_rows(dets: Detections, truth: GroundTruth, iou_threshold: float):
    """:func:`match` on columns: (kept rows in canonical order, their TP flags, gt_counts)."""
    names = sorted(set(dets.names).union(truth.names))
    classes = np.unique(np.concatenate((dets.class_index, truth.class_index)))
    n_cls = len(classes)
    det_key = _recode(dets.names, names)[dets.image] * n_cls
    det_key += np.searchsorted(classes, dets.class_index)
    gt_img = _recode(truth.names, names)[truth.image]
    gt_cls = np.searchsorted(classes, truth.class_index)

    # matchable boxes sorted by (image, class, x, y, w, h); regions by image
    real = np.flatnonzero(~truth.ignore)
    box_key = gt_img[real] * n_cls + gt_cls[real]
    by_box = np.lexsort((truth.h[real], truth.w[real], truth.y[real], truth.x[real], box_key))
    real, box_key = real[by_box], box_key[by_box]
    boxes = corner_table(truth.x[real], truth.y[real], truth.w[real], truth.h[real])
    regions = np.flatnonzero(truth.ignore)
    regions = regions[np.argsort(gt_img[regions], kind="stable")]
    region_img = gt_img[regions]
    regions = corner_table(truth.x[regions], truth.y[regions], truth.w[regions],
                           truth.h[regions])
    counts = np.bincount(gt_cls[real], minlength=n_cls)
    gt_counts = {cls: count for cls, count in zip(classes.tolist(), counts.tolist()) if count}

    # canonical order (score desc, image id, x, y, w, h, class, input order),
    # then grouped by (image, class) with that order kept inside each group
    n = len(dets)
    order = np.lexsort((dets.class_index, dets.h, dets.w, dets.y, dets.x, dets.image,
                        -dets.score))
    by_group = np.argsort(det_key[order], kind="stable")
    grouped = order[by_group]
    key = det_key[grouped]
    corners = corner_table(dets.x[grouped], dets.y[grouped], dets.w[grouped], dets.h[grouped])

    # per (image, class) group: its detections, its boxes, its image's regions
    new_group = np.ones(n, dtype=bool)
    new_group[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(new_group)
    group_key = key[starts]
    group_img = group_key // n_cls
    bounds = zip(
        starts.tolist(), np.append(starts[1:], n).tolist(),
        np.searchsorted(box_key, group_key).tolist(),
        np.searchsorted(box_key, group_key, side="right").tolist(),
        np.searchsorted(region_img, group_img).tolist(),
        np.searchsorted(region_img, group_img, side="right").tolist(),
    )
    is_tp = np.zeros(n, dtype=bool)  # in grouped order
    discard = np.zeros(n, dtype=bool)
    for lo, hi, b_lo, b_hi, r_lo, r_hi in bounds:
        if b_hi == b_lo and r_hi == r_lo:
            continue  # nothing to match or ignore: all FP
        group = corners[:, lo:hi, None]
        if b_hi > b_lo:
            grid = iou_grid(group, boxes[:, b_lo:b_hi])
            # a row below the threshold on every box can never match
            for row in np.flatnonzero(grid.max(axis=1) >= iou_threshold).tolist():
                best = grid[row].argmax()  # first maximum, as in the loop
                if grid[row, best] >= iou_threshold:
                    is_tp[lo + row] = True
                    grid[:, best] = -1.0  # consumed
        if r_hi > r_lo:
            overlap = iou_grid(group, regions[:, r_lo:r_hi]).max(axis=1)
            discard[lo:hi] = (overlap >= iou_threshold) & ~is_tp[lo:hi]

    keep = np.empty(n, dtype=bool)
    keep[grouped] = ~discard
    tp = np.empty(n, dtype=bool)
    tp[grouped] = is_tp
    kept = order[keep[order]]
    return kept, tp[kept], gt_counts


def check_iou_threshold(iou_threshold: float) -> None:
    """The matching IoU threshold's range, (0, 1]: a ValidationError outside it."""
    if not 0 < iou_threshold <= 1:
        raise ValidationError(f"iou_threshold must be in (0, 1], got {iou_threshold}")


def check_score_threshold(score_threshold: float | None) -> None:
    """The evaluation confidence cut's range, [0, 1] or None (no cut): a
    ValidationError outside it."""
    if score_threshold is not None and not 0 <= score_threshold <= 1:
        raise ValidationError(f"score_threshold must be in [0, 1], got {score_threshold}")


def match(detections, ground_truth, iou_threshold: float = 0.5):
    """Label every detection TP/FP (or discard it) against the ground truth.

    Takes :class:`Detections` (or a list of :class:`Detection`) and a
    :class:`GroundTruth` (or a list of :class:`GroundTruthBox`). Returns
    (labeled, gt_counts): ``labeled`` holds the detections in canonical
    order with discarded ones removed, as :class:`Labeled` for columnar
    input and as a list of (Detection, bool) pairs of the caller's own
    objects for a list; ``gt_counts`` maps class index to its non-ignored
    ground-truth box count.

    Canonical order is (score desc, image id, x, y, w, h, class), input
    order on full ties. Per (image, class) pair, each detection in that
    order takes the unmatched box of highest IoU, the first in (x, y, w, h)
    order on ties; it is a TP if that IoU reaches the threshold. Otherwise
    it is discarded if it reaches the threshold with an ignore-flagged
    region of its image, else a FP. The rule is ``oracles.match_loop``'s,
    label for label.
    """
    check_iou_threshold(iou_threshold)
    dets = Detections.of(detections)
    kept, tp, gt_counts = _match_rows(dets, GroundTruth.of(ground_truth), iou_threshold)
    if dets is detections:
        return Labeled(dets.take(kept), tp), gt_counts
    return list(zip(map(detections.__getitem__, kept.tolist()), tp.tolist())), gt_counts


def precision_recall(tp: int, fp: int, fn: int) -> tuple[float, float]:
    """P = TP/(TP+FP), R = TP/(TP+FN); zero denominators yield 0."""
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return p, r


def pr_curve(scored_labels, gt_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative (recall, precision) points over descending score thresholds.

    ``scored_labels`` is [(score, is_tp)] in descending-score order. One
    point is produced per distinct score (tied detections enter the counts
    together), so the curve is a function of the threshold alone and does
    not depend on how ties were ordered.
    """
    scores = np.asarray([s for s, _ in scored_labels], dtype=float)
    tps = np.asarray([t for _, t in scored_labels], dtype=bool)
    return _curve(scores, tps, gt_count)


def _curve(scores: np.ndarray, tps: np.ndarray, gt_count: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`pr_curve` on a score column and a TP-flag column."""
    if not len(scores):
        return np.array([]), np.array([])
    cum_tp = np.cumsum(tps)
    cum_fp = np.cumsum(~tps)
    # last index of each tied-score run = counts with threshold at that score
    boundary = np.ones(len(scores), dtype=bool)
    boundary[:-1] = scores[:-1] != scores[1:]
    cum_tp = cum_tp[boundary]
    cum_fp = cum_fp[boundary]
    recalls = cum_tp / gt_count if gt_count else np.zeros_like(cum_tp, dtype=float)
    precisions = cum_tp / (cum_tp + cum_fp)
    return recalls, precisions


def average_precision(scored_labels, gt_count: int) -> float:
    """All-point interpolated AP from (score, TP/FP) labels.

    At each recall step the precision is the maximum precision attained at
    any recall at least that large (the right envelope of the PR curve).
    Returns a fraction in [0, 1]; 0 when there is no ground truth.
    """
    if gt_count == 0 or not scored_labels:
        return 0.0
    return _curve_ap(*pr_curve(scored_labels, gt_count))


def _curve_ap(recalls: np.ndarray, precisions: np.ndarray) -> float:
    """The AP sum of :func:`average_precision` over an existing PR curve."""
    envelope = np.maximum.accumulate(precisions[::-1])[::-1]
    ap = 0.0
    prev_recall = 0.0
    for r, p in zip(recalls, envelope):
        if r > prev_recall:
            ap += (r - prev_recall) * p
            prev_recall = r
    return float(ap)


@dataclass
class ClassResult:
    class_index: int
    ap: float  # fraction in [0, 1]
    tp: int
    fp: int
    fn: int
    gt_count: int
    recalls: list[float] = field(default_factory=list)
    precisions: list[float] = field(default_factory=list)

    @property
    def ap_percent(self) -> float:
        return 100.0 * self.ap


@dataclass
class EvalReport:
    per_class: list[ClassResult]
    precision: float  # pooled over classes, at the upstream score threshold
    recall: float
    map_fraction: float
    score_threshold: float | None = None

    @property
    def map_percent(self) -> float:
        return 100.0 * self.map_fraction

    @property
    def evaluated_classes(self) -> list[int]:
        return [c.class_index for c in self.per_class if c.gt_count > 0]


def evaluate(detections, ground_truth, num_classes: int,
             iou_threshold: float = 0.5, score_threshold: float | None = None) -> EvalReport:
    """Full evaluation: per-class AP, pooled precision/recall, and mAP.

    Takes :class:`Detections` or a list of :class:`Detection`, and a
    :class:`GroundTruth` or a list of :class:`GroundTruthBox`.
    ``score_threshold`` only filters the detections (and is recorded in the
    report); pass None when the caller already applied its confidence cut.
    Classes with no ground-truth boxes report AP 0 and are excluded from the
    mAP mean.
    """
    check_num_classes(num_classes)
    check_score_threshold(score_threshold)
    dets = Detections.of(detections)
    truth = GroundTruth.of(ground_truth)
    bad = (dets.class_index < 0) | (dets.class_index >= num_classes)
    if bad.any():
        raise ValidationError(
            f"detection class {dets.class_index[bad][0]} outside 0..{num_classes - 1}"
        )
    bad = ~truth.ignore & ((truth.class_index < 0) | (truth.class_index >= num_classes))
    if bad.any():
        raise ValidationError(
            f"ground-truth class {truth.class_index[bad][0]} outside 0..{num_classes - 1}"
        )
    if score_threshold is not None:
        dets = dets.take(dets.score >= score_threshold)

    labeled, gt_counts = match(dets, truth, iou_threshold)
    # split by class, each class keeping the score order
    by_class = np.argsort(labeled.detections.class_index, kind="stable")
    bounds = np.searchsorted(labeled.detections.class_index[by_class],
                             np.arange(num_classes + 1)).tolist()
    scores = labeled.detections.score[by_class]
    flags = labeled.is_tp[by_class]
    per_class = []
    for cls in range(num_classes):
        gt_count = gt_counts.get(cls, 0)
        tps = flags[bounds[cls] : bounds[cls + 1]]
        recalls, precisions = _curve(scores[bounds[cls] : bounds[cls + 1]], tps, gt_count)
        ap = _curve_ap(recalls, precisions) if gt_count and len(tps) else 0.0
        tp = int(tps.sum())
        per_class.append(
            ClassResult(cls, ap, tp, len(tps) - tp, gt_count - tp, gt_count,
                        recalls.tolist(), precisions.tolist())
        )

    total_tp = sum(c.tp for c in per_class)
    total_fp = sum(c.fp for c in per_class)
    total_fn = sum(c.fn for c in per_class)
    precision, recall = precision_recall(total_tp, total_fp, total_fn)
    with_gt = [c.ap for c in per_class if c.gt_count > 0]
    map_fraction = float(np.mean(with_gt)) if with_gt else 0.0
    return EvalReport(per_class, precision, recall, map_fraction, score_threshold)


def format_report_table(report: EvalReport, class_names=None) -> str:
    """Aligned plain-text table: one row per class, then the dataset summary."""
    if class_names is None:
        if len(report.per_class) == len(VISDRONE_CLASS_NAMES):
            class_names = VISDRONE_CLASS_NAMES
        else:
            class_names = [f"class{c.class_index}" for c in report.per_class]
    name_w = max(len("Class"), *(len(n) for n in class_names)) if class_names else 5
    lines = [f"{'Class':<{name_w}}  {'AP50':>6}  {'TP':>6}  {'FP':>6}  {'FN':>6}"]
    for result, name in zip(report.per_class, class_names):
        lines.append(
            f"{name:<{name_w}}  {result.ap_percent:>6.1f}  {result.tp:>6}  "
            f"{result.fp:>6}  {result.fn:>6}"
        )
    threshold = (
        "as given" if report.score_threshold is None else f"{report.score_threshold:g}"
    )
    lines.append("")
    lines.append(
        f"Precision {100 * report.precision:.1f}  Recall {100 * report.recall:.1f}  "
        f"mAP50 {report.map_percent:.1f}  (confidence threshold: {threshold})"
    )
    return "\n".join(lines) + "\n"


def report_csv(report: EvalReport) -> str:
    lines = ["class,ap,tp,fp,fn"]
    for c in report.per_class:
        lines.append(f"{c.class_index},{c.ap_percent:.6f},{c.tp},{c.fp},{c.fn}")
    return "\n".join(lines) + "\n"


def pr_curve_csv(result: ClassResult) -> str:
    lines = ["recall,precision"]
    for r, p in zip(result.recalls, result.precisions):
        lines.append(f"{r!r},{p!r}")
    return "\n".join(lines) + "\n"


def write_report_files(report: EvalReport, out_dir, class_names=None) -> None:
    """Emit report.txt, report.csv, and one PR-curve CSV per class."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(format_report_table(report, class_names))
    with open(os.path.join(out_dir, "report.csv"), "w", encoding="utf-8") as fh:
        fh.write(report_csv(report))
    for result in report.per_class:
        path = os.path.join(out_dir, f"pr_class{result.class_index}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(pr_curve_csv(result))
