"""Output checks: each returns the problems it found, empty when there are none.

An operation is one detect image, one training run or one eval run; any
problem fails it. The checks read the files the CLI wrote and parse them
back with the kit's own readers, so a file the kit cannot read again fails.
"""

from __future__ import annotations

import csv
import io
import math
import os
from collections import Counter

import numpy as np

# Agreement with the committed reference outputs (default seed only). Float32
# heads may move by ~1e-5 under kernel changes that keep the stated
# tolerances; float64 by ~1e-12.
REFERENCE_TOLERANCE = {
    "single": {"score": 1e-3, "box": 0.5},
    "double": {"score": 1e-6, "box": 1e-3},
}
REFERENCE_TOP = 10  # highest-scored detections per image kept in a reference
LOSS_RATIO_LIMIT = 0.5  # the toy gate's own standard: the loss at least halves


def _max_same_class_iou(boxes: np.ndarray) -> float:
    """Largest pairwise IoU among (x, y, w, h) center boxes."""
    if len(boxes) < 2:
        return 0.0
    x, y, w, h = boxes.T
    x1, y1, x2, y2 = x - w / 2, y - h / 2, x + w / 2, y + h / 2
    iw = np.minimum(x2[:, None], x2[None, :]) - np.maximum(x1[:, None], x1[None, :])
    ih = np.minimum(y2[:, None], y2[None, :]) - np.maximum(y1[:, None], y1[None, :])
    inter = np.where((iw > 0) & (ih > 0), iw * ih, 0.0)
    area = w * h
    overlap = inter / (area[:, None] + area[None, :] - inter)
    np.fill_diagonal(overlap, 0.0)
    return float(overlap.max())


def check_detections(pred_text: str, image_ids: list[str], conf: float,
                     nms_threshold: float) -> dict[str, list[str]]:
    """Parse-back, confidence floor and the NMS invariant, per image."""
    from yolokit.errors import YoloKitError
    from yolokit.evaluation import parse_predictions

    problems: dict[str, list[str]] = {image_id: [] for image_id in image_ids}
    try:
        detections = parse_predictions(pred_text)
    except YoloKitError as exc:
        for image_id in image_ids:
            problems[image_id].append(f"prediction file does not parse back: {exc}")
        return problems
    by_image: dict[str, list] = {}
    for det in detections:
        if det.image_id not in problems:
            problems.setdefault(det.image_id, []).append("detection for an unknown image")
            continue
        by_image.setdefault(det.image_id, []).append(det)
    for image_id in image_ids:
        dets = by_image.get(image_id, [])
        if not dets:
            problems[image_id].append("no detections")
            continue
        low = [d.score for d in dets if d.score < conf]
        if low:
            problems[image_id].append(f"{len(low)} scores below --conf {conf}, e.g. {low[0]!r}")
        classes = {d.class_index for d in dets}
        for cls in sorted(classes):
            boxes = np.array([[d.box.x, d.box.y, d.box.w, d.box.h]
                              for d in dets if d.class_index == cls])
            worst = _max_same_class_iou(boxes)
            if worst > nms_threshold:
                problems[image_id].append(
                    f"class {cls}: two boxes overlap with IoU {worst:.4f} > --nms {nms_threshold}"
                )
    return problems


def detection_summary(pred_text: str) -> dict:
    """Per image: the detection count and the top-scored detections."""
    from yolokit.evaluation import parse_predictions

    summary: dict[str, dict] = {}
    for det in parse_predictions(pred_text):
        entry = summary.setdefault(det.image_id, {"count": 0, "top": []})
        entry["count"] += 1
        entry["top"].append([det.class_index, det.score, det.box.x, det.box.y,
                             det.box.w, det.box.h])
    for entry in summary.values():
        entry["top"] = sorted(entry["top"], key=lambda d: -d[1])[:REFERENCE_TOP]
    return summary


def compare_detections(summary: dict, reference: dict, precision: str) -> dict[str, list[str]]:
    """Counts within 1% (at least 2) and every reference top box matched."""
    tol = REFERENCE_TOLERANCE[precision]
    problems: dict[str, list[str]] = {}
    for image_id, ref in reference.items():
        got = summary.get(image_id, {"count": 0, "top": []})
        found = problems.setdefault(image_id, [])
        allowed = max(2, math.ceil(0.01 * ref["count"]))
        if abs(got["count"] - ref["count"]) > allowed:
            found.append(f"{got['count']} detections, reference {ref['count']}")
        for cls, score, *box in ref["top"]:
            if not any(
                c == cls and abs(s - score) <= tol["score"]
                and all(abs(a - b) <= tol["box"] for a, b in zip(b_, box))
                for c, s, *b_ in got["top"]
            ):
                found.append(f"reference detection class {cls} score {score!r} not found")
    return problems


def check_rendered(render_dir: str, sizes: dict[str, tuple[int, int]]) -> dict[str, list[str]]:
    """Every rendered image exists as a P6 file of its input's size."""
    problems: dict[str, list[str]] = {}
    for image_id, (w, h) in sizes.items():
        path = os.path.join(render_dir, f"{image_id}.ppm")
        header = b"P6\n%d %d\n255\n" % (w, h)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            problems[image_id] = [f"rendered image missing: {exc}"]
            continue
        if not data.startswith(header) or len(data) != len(header) + 3 * w * h:
            problems[image_id] = ["rendered image has the wrong header or size"]
    return problems


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_training(csv_text: str, steps: int) -> tuple[list[str], float]:
    """Finite loss history of the expected length that at least halves."""
    rows = _csv_rows(csv_text)
    if len(rows) != steps:
        return [f"{len(rows)} loss rows, expected {steps}"], float("nan")
    try:
        losses = [float(row["loss"]) for row in rows]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"unreadable loss column: {exc}"], float("nan")
    if not all(math.isfinite(v) for v in losses):
        return ["non-finite loss in the history"], float("nan")
    ratio = losses[-1] / losses[0]
    if not ratio <= LOSS_RATIO_LIMIT:
        return [f"loss ratio {ratio:.4f} > {LOSS_RATIO_LIMIT}"], ratio
    return [], ratio


def read_report(csv_text: str) -> list[dict]:
    """report.csv rows as {class, ap (percent), tp, fp, fn}."""
    return [
        {"class": int(r["class"]), "ap": float(r["ap"]), "tp": int(r["tp"]),
         "fp": int(r["fp"]), "fn": int(r["fn"])}
        for r in _csv_rows(csv_text)
    ]


def check_report(report: list[dict], gt_counts: dict[int, int],
                 pred_counts: dict[int, int], reference: list[dict] | None) -> list[str]:
    """Count invariants of an eval report, plus the reference when given."""
    problems = []
    if sorted(r["class"] for r in report) != list(range(10)):
        return [f"report classes {[r['class'] for r in report]}, expected 0..9"]
    for r in report:
        cls = r["class"]
        if r["tp"] + r["fn"] != gt_counts.get(cls, 0):
            problems.append(f"class {cls}: TP+FN {r['tp'] + r['fn']} != {gt_counts.get(cls, 0)} boxes")
        if r["tp"] + r["fp"] > pred_counts.get(cls, 0):
            problems.append(f"class {cls}: TP+FP exceeds its {pred_counts.get(cls, 0)} predictions")
        if not 0 <= r["ap"] <= 100:
            problems.append(f"class {cls}: AP {r['ap']} outside [0, 100]")
    if reference is not None:
        for got, ref in zip(sorted(report, key=lambda r: r["class"]), reference):
            if (got["tp"], got["fp"]) != (ref["tp"], ref["fp"]) or abs(got["ap"] - ref["ap"]) > 1e-6:
                problems.append(f"class {got['class']}: {got} differs from reference {ref}")
    return problems


def eval_counts(gt_dir: str, pred_path: str) -> tuple[dict[int, int], dict[int, int]]:
    """Non-ignored ground-truth boxes and predictions per class index."""
    gt_counts: Counter = Counter()
    for name in os.listdir(gt_dir):
        with open(os.path.join(gt_dir, name), encoding="utf-8") as fh:
            categories = (int(line.split(",")[5]) for line in fh)
            gt_counts.update(c - 1 for c in categories if 1 <= c <= 10)
    with open(pred_path, encoding="utf-8") as fh:
        pred_counts = Counter(int(line.split()[1]) for line in fh)
    return gt_counts, pred_counts


def check_evaluator_oracle(gt_texts: dict[str, str], pred_text: str) -> list[str]:
    """evaluation.evaluate against oracles.brute_force_evaluate, AP within 1e-9."""
    from yolokit import oracles
    from yolokit.errors import YoloKitError
    from yolokit.evaluation import evaluate, parse_predictions, parse_visdrone

    truth = [box for image_id, text in gt_texts.items() for box in parse_visdrone(text, image_id)]
    detections = parse_predictions(pred_text)
    try:
        report = evaluate(detections, truth, 10)
    except YoloKitError as exc:
        return [f"evaluate raised {exc!r}"]
    oracle_aps, oracle_map = oracles.brute_force_evaluate(detections, truth, 10)
    worst = max(abs(c.ap - ap) for c, ap in zip(report.per_class, oracle_aps))
    worst = max(worst, abs(report.map_fraction - oracle_map))
    return [] if worst <= 1e-9 else [f"evaluate differs from the brute-force oracle by {worst:.3e}"]
