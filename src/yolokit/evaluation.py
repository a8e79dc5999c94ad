"""Detection quality metrics: matching, precision/recall, AP and mAP at IoU 0.5.

Ground truth arrives as VisDrone-style per-image annotation files
(``x,y,w,h,score,category,truncation,occlusion`` with top-left corners);
predictions as one text file with ``image_id class score x y w h`` lines
(center-based, pixels). Matching is greedy by descending score within each
image and class; detections that only overlap ignore-flagged regions are
discarded from both counts. AP uses all-point right-envelope interpolation
and mAP averages the classes that actually appear in the ground truth.

Everything is deterministic under input shuffling: equal scores are ordered
by image id, then box coordinates, lexicographically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .detect import Box, Detection, iou
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


def _canonical_detections(detections):
    return sorted(
        detections,
        key=lambda d: (-d.score, d.image_id, d.box.x, d.box.y, d.box.w, d.box.h, d.class_index),
    )


def _canonical_gt(ground_truth):
    return sorted(
        ground_truth,
        key=lambda g: (g.image_id, g.class_index, g.box.x, g.box.y, g.box.w, g.box.h, g.ignore),
    )


def match(detections, ground_truth, iou_threshold: float = 0.5):
    """Label every detection TP/FP (or discard it) against the ground truth.

    Returns (labeled, gt_counts): ``labeled`` is [(Detection, bool)] in
    canonical score order with discarded detections removed; ``gt_counts``
    maps class index to its non-ignored ground-truth box count.
    """
    dets = _canonical_detections(detections)
    gts = _canonical_gt(ground_truth)

    by_image: dict[str, list[GroundTruthBox]] = {}
    gt_counts: dict[int, int] = {}
    for gt in gts:
        by_image.setdefault(gt.image_id, []).append(gt)
        if not gt.ignore:
            gt_counts[gt.class_index] = gt_counts.get(gt.class_index, 0) + 1

    matched: set[int] = set()  # id() of consumed ground-truth boxes
    labeled: list[tuple[Detection, bool]] = []
    for det in dets:
        candidates = by_image.get(det.image_id, ())
        best_gt, best_iou = None, 0.0
        for gt in candidates:
            if gt.ignore or gt.class_index != det.class_index or id(gt) in matched:
                continue
            overlap = iou(det.box, gt.box)
            if overlap > best_iou:
                best_gt, best_iou = gt, overlap
        if best_gt is not None and best_iou >= iou_threshold:
            matched.add(id(best_gt))
            labeled.append((det, True))
            continue
        ignored_overlap = max(
            (iou(det.box, gt.box) for gt in candidates if gt.ignore), default=0.0
        )
        if ignored_overlap >= iou_threshold:
            continue  # discard: matched an ignore region, counts nowhere
        labeled.append((det, False))
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
    if not scored_labels:
        return np.array([]), np.array([])
    scores = np.asarray([s for s, _ in scored_labels], dtype=float)
    tps = np.asarray([t for _, t in scored_labels], dtype=bool)
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
    recalls, precisions = pr_curve(scored_labels, gt_count)
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
    per_class = []
    for cls in range(num_classes):
        scored = [(det.score, is_tp) for det, is_tp in labeled if det.class_index == cls]
        gt_count = gt_counts.get(cls, 0)
        tp = sum(is_tp for _, is_tp in scored)
        fp = len(scored) - tp
        ap = average_precision(scored, gt_count)
        recalls, precisions = pr_curve(scored, gt_count)
        per_class.append(
            ClassResult(cls, ap, tp, fp, gt_count - tp, gt_count,
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
