"""Detection quality metrics: matching, precision/recall, AP and mAP at IoU 0.5.

Ground truth arrives as VisDrone-style per-image annotation files
(``x,y,w,h,score,category,truncation,occlusion`` with top-left corners);
predictions as one text file with ``image_id class score x y w h`` lines
(center-based, pixels). Matching is greedy by descending score per (image,
class) pair, one numpy IoU grid per pair; detections that only overlap
ignore-flagged regions are discarded from both counts. AP uses all-point
right-envelope interpolation and mAP averages the classes that actually
appear in the ground truth.

Everything is deterministic under input shuffling: equal scores are ordered
by image id, then box coordinates, lexicographically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .detect import Box, Detection, corner_table, iou_grid
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


def parse_visdrone(text: str, image_id: str) -> list[GroundTruthBox]:
    """Parse one annotation file's text into ground-truth boxes."""
    boxes = []
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
        if w <= 0 or h <= 0:
            raise AnnotationError(f"non-positive box extent {w}x{h}", lineno)
        box = Box(x + w / 2, y + h / 2, w, h)
        if category in _IGNORED_CATEGORIES:
            boxes.append(GroundTruthBox(image_id, -1, box, ignore=True))
        elif 1 <= category <= 10:
            boxes.append(GroundTruthBox(image_id, category - 1, box))
        else:
            raise AnnotationError(f"category {category} outside 0..11", lineno)
    return boxes


def format_visdrone(boxes: list[GroundTruthBox]) -> str:
    """Inverse of parse_visdrone (score 1, truncation/occlusion 0)."""
    lines = []
    for gt in boxes:
        category = 0 if gt.ignore else gt.class_index + 1
        x = gt.box.x - gt.box.w / 2
        y = gt.box.y - gt.box.h / 2
        lines.append(f"{x:g},{y:g},{gt.box.w:g},{gt.box.h:g},1,{category},0,0")
    return "\n".join(lines) + ("\n" if lines else "")


def load_ground_truth(directory) -> list[GroundTruthBox]:
    """Read every ``*.txt`` in a directory; the file stem is the image id."""
    boxes = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".txt"):
            continue
        path = os.path.join(directory, name)
        with open(path, encoding="utf-8") as fh:
            try:
                boxes.extend(parse_visdrone(fh.read(), image_id=name[:-4]))
            except AnnotationError as exc:
                wrapped = AnnotationError(f"{path}: {exc}")
                wrapped.line = exc.line
                raise wrapped from None
    return boxes


def parse_predictions(text: str) -> list[Detection]:
    """Parse ``image_id class_index score x y w h`` lines."""
    detections = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 7:
            raise AnnotationError(f"expected 7 space-separated fields, got {len(fields)}", lineno)
        try:
            cls = int(fields[1])
            score, x, y, w, h = (float(tok) for tok in fields[2:])
        except ValueError as exc:
            raise AnnotationError(str(exc), lineno) from None
        if cls < 0:
            raise AnnotationError(f"negative class index {cls}", lineno)
        if not 0 <= score <= 1:
            raise AnnotationError(f"score {score} outside [0, 1]", lineno)
        if w <= 0 or h <= 0:
            raise AnnotationError(f"non-positive box extent {w}x{h}", lineno)
        detections.append(Detection(fields[0], cls, score, Box(x, y, w, h)))
    return detections


def format_predictions(detections: list[Detection]) -> str:
    """One ``image_id class_index score x y w h`` line per detection.

    Values are written as Python ``int``/``float`` reprs, so numpy scalars
    produce the same text as the Python numbers they hold.
    """
    lines = [
        f"{d.image_id} {int(d.class_index)} {float(d.score)!r} {float(d.box.x)!r} "
        f"{float(d.box.y)!r} {float(d.box.w)!r} {float(d.box.h)!r}"
        for d in detections
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def _codes(items, key: str, table: dict, dtype=np.int32) -> np.ndarray:
    """Position of each item's ``key`` attribute in ``table``."""
    return np.fromiter(map(table.__getitem__, map(attrgetter(key), items)), dtype, len(items))


def _column(items, key: str, dtype=np.float64) -> np.ndarray:
    return np.fromiter(map(attrgetter(key), items), dtype, len(items))


def _truth_tables(ground_truth, image_code: dict, class_code: dict, key_type):
    """Ground truth as corner tables, split by the ignore flag.

    Returns (boxes, box_keys, regions, region_images, class_counts): the
    matchable boxes sorted by (image, class, x, y, w, h) with their
    image * classes + class keys, the ignore regions sorted by image with
    their image codes, and the matchable box count per class code.
    """
    image = _codes(ground_truth, "image_id", image_code, key_type)
    cls = _codes(ground_truth, "class_index", class_code)
    ignore = _column(ground_truth, "ignore", bool)
    x, y, w, h = (_column(ground_truth, f"box.{f}") for f in "xywh")
    key = image * len(class_code) + cls
    real = np.flatnonzero(~ignore)
    real = real[np.lexsort((h[real], w[real], y[real], x[real], key[real]))]
    regions = np.flatnonzero(ignore)
    regions = regions[np.argsort(image[regions], kind="stable")]
    return (
        corner_table(x[real], y[real], w[real], h[real]), key[real],
        corner_table(x[regions], y[regions], w[regions], h[regions]), image[regions],
        np.bincount(cls[real], minlength=len(class_code)),
    )


def match(detections, ground_truth, iou_threshold: float = 0.5):
    """Label every detection TP/FP (or discard it) against the ground truth.

    Returns (labeled, gt_counts): ``labeled`` is [(Detection, bool)] in
    canonical score order with discarded detections removed; ``gt_counts``
    maps class index to its non-ignored ground-truth box count.

    Canonical order is (score desc, image id, x, y, w, h, class), input
    order on full ties. Per (image, class) pair, each detection in that
    order takes the unmatched box of highest IoU, the first in (x, y, w, h)
    order on ties; it is a TP if that IoU reaches the threshold. Otherwise
    it is discarded if it reaches the threshold with an ignore-flagged
    region of its image, else a FP. The rule is ``oracles.match_loop``'s,
    label for label.
    """
    if not 0 < iou_threshold <= 1:
        raise ValidationError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    n = len(detections)
    image_ids = {d.image_id for d in detections}.union(g.image_id for g in ground_truth)
    classes = {d.class_index for d in detections}.union(g.class_index for g in ground_truth)
    image_code = {image_id: k for k, image_id in enumerate(sorted(image_ids))}
    class_code = {cls: k for k, cls in enumerate(sorted(classes))}
    key_type = np.int32 if len(image_ids) * len(classes) < 2**31 else np.int64
    boxes, box_key, regions, region_img, counts = _truth_tables(
        ground_truth, image_code, class_code, key_type
    )
    gt_counts = {cls: int(counts[k]) for cls, k in class_code.items() if counts[k]}
    if not n:
        return [], gt_counts

    def tie_key(i):
        box = detections[i].box
        return box.x, box.y, box.w, box.h, detections[i].class_index

    # Full-length columns are few and freed early: the heap they grow is not
    # reused by the Python objects built next, so it adds to the peak RSS.
    # Detections in canonical order: one lexsort on (score desc, image);
    # the few runs tied on both are ordered by (x, y, w, h, class) in Python.
    key = _codes(detections, "image_id", image_code, key_type)
    neg_score = _column(detections, "score")
    np.negative(neg_score, out=neg_score)
    order = np.lexsort((key, neg_score))
    key = key[order]
    neg_score = neg_score[order]
    tied = (neg_score[1:] == neg_score[:-1]) & (key[1:] == key[:-1])
    del neg_score
    tied = np.concatenate(([False], tied, [False]))
    edges = np.flatnonzero(tied[1:] != tied[:-1]).tolist()  # run starts, run ends
    for lo, hi in zip(edges[::2], edges[1::2]):
        order[lo : hi + 1] = sorted(order[lo : hi + 1].tolist(), key=tie_key)

    # then grouped by (image, class), canonical order kept inside each group
    key *= len(classes)
    key += _codes(detections, "class_index", class_code)[order]
    by_group = np.argsort(key, kind="stable")
    grouped = order[by_group]
    key = key[by_group]
    del by_group

    # per (image, class) group: its detections, its boxes, its image's regions
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    group_key = key[starts]
    group_img = group_key // len(classes)
    del key
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
        members = list(map(detections.__getitem__, grouped[lo:hi].tolist()))
        dets = corner_table(*(_column(members, f"box.{f}") for f in "xywh"))
        if b_hi > b_lo:
            grid = iou_grid(dets[:, :, None], boxes[:, b_lo:b_hi])
            # a row below the threshold on every box can never match
            for row in np.flatnonzero(grid.max(axis=1) >= iou_threshold).tolist():
                best = grid[row].argmax()  # first maximum, as in the loop
                if grid[row, best] >= iou_threshold:
                    is_tp[lo + row] = True
                    grid[:, best] = -1.0  # consumed
        if r_hi > r_lo:
            overlap = iou_grid(dets[:, :, None], regions[:, r_lo:r_hi]).max(axis=1)
            discard[lo:hi] = (overlap >= iou_threshold) & ~is_tp[lo:hi]

    keep = np.empty(n, dtype=bool)
    keep[grouped] = ~discard
    kept = order[keep[order]]
    tp = np.empty(n, dtype=bool)
    tp[grouped] = is_tp
    # memoryviews hand out Python ints and bools one at a time (.tolist()
    # would hold a list of n ints alongside the list being built)
    labeled = list(zip(map(detections.__getitem__, memoryview(kept)), memoryview(tp[kept])))
    return labeled, gt_counts


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

    ``score_threshold`` only filters the detections (and is recorded in the
    report); pass None when the caller already applied its confidence cut.
    Classes with no ground-truth boxes report AP 0 and are excluded from the
    mAP mean.
    """
    for det in detections:
        if not 0 <= det.class_index < num_classes:
            raise ValidationError(
                f"detection class {det.class_index} outside 0..{num_classes - 1}"
            )
    for gt in ground_truth:
        if not gt.ignore and not 0 <= gt.class_index < num_classes:
            raise ValidationError(
                f"ground-truth class {gt.class_index} outside 0..{num_classes - 1}"
            )
    if score_threshold is not None:
        detections = [d for d in detections if d.score >= score_threshold]

    labeled, gt_counts = match(detections, ground_truth, iou_threshold)
    scores = [[] for _ in range(num_classes)]
    flags = [[] for _ in range(num_classes)]
    for det, is_tp in labeled:  # one pass; each class keeps the score order
        scores[det.class_index].append(det.score)
        flags[det.class_index].append(is_tp)
    per_class = []
    for cls in range(num_classes):
        gt_count = gt_counts.get(cls, 0)
        tps = np.asarray(flags[cls], dtype=bool)
        recalls, precisions = _curve(np.asarray(scores[cls], dtype=float), tps, gt_count)
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
