"""Naive reference implementations used by the verification suite.

Everything here is deliberately written the slow, obvious way (explicit
loops, threshold enumeration, no shared helpers with the production code
paths) so it can serve as an independent cross-check.
"""

from __future__ import annotations

import math

import numpy as np

from .detect import Box, Detection
from .errors import AnnotationError
from .evaluation import GroundTruthBox


def maxpool_scan(x: np.ndarray, size: int, stride: int, pad: int) -> np.ndarray:
    """Exhaustive window scan max pool; padding cells are -inf."""
    c, h, w = x.shape
    padded = np.full((c, h + 2 * pad, w + 2 * pad), -np.inf, dtype=x.dtype)
    padded[:, pad : pad + h, pad : pad + w] = x
    out_h = (h + 2 * pad - size) // stride + 1
    out_w = (w + 2 * pad - size) // stride + 1
    out = np.empty((c, out_h, out_w), dtype=x.dtype)
    for ch in range(c):
        for i in range(out_h):
            for j in range(out_w):
                window = padded[ch, i * stride : i * stride + size, j * stride : j * stride + size]
                out[ch, i, j] = window.max()
    return out


def maxpool_scan_grad(x: np.ndarray, size: int, stride: int, pad: int,
                      gy: np.ndarray) -> np.ndarray:
    """Input gradient of the max pool by window scan.

    Each output's gradient goes to the first cell of its window, in row-major
    order, that holds the window maximum; a padding cell that wins (every
    cell -inf) keeps the gradient out of the input.
    """
    c, h, w = x.shape
    padded = np.full((c, h + 2 * pad, w + 2 * pad), -np.inf, dtype=x.dtype)
    padded[:, pad : pad + h, pad : pad + w] = x
    grad = np.zeros(padded.shape, dtype=gy.dtype)
    for ch in range(c):
        for i in range(gy.shape[1]):
            for j in range(gy.shape[2]):
                top, left = i * stride, j * stride
                window = padded[ch, top : top + size, left : left + size]
                best = window.max()
                first = next(n for n, v in enumerate(window.ravel()) if v == best)
                grad[ch, top + first // size, left + first % size] += gy[ch, i, j]
    return grad[:, pad : pad + h, pad : pad + w]


def conv_direct(x: np.ndarray, weights: np.ndarray, biases: np.ndarray,
                stride: int, pad: int) -> np.ndarray:
    """Direct nested-loop convolution (no batch-norm, linear activation)."""
    cin, h, w = x.shape
    f, _, k, _ = weights.shape
    padded = np.zeros((cin, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    padded[:, pad : pad + h, pad : pad + w] = x
    out_h = (h + 2 * pad - k) // stride + 1
    out_w = (w + 2 * pad - k) // stride + 1
    out = np.zeros((f, out_h, out_w), dtype=x.dtype)
    for fi in range(f):
        for i in range(out_h):
            for j in range(out_w):
                acc = 0.0
                for ci in range(cin):
                    for ki in range(k):
                        for kj in range(k):
                            acc += (
                                weights[fi, ci, ki, kj]
                                * padded[ci, i * stride + ki, j * stride + kj]
                            )
                out[fi, i, j] = acc + biases[fi]
    return out


# darknet's batch-norm epsilon and leaky slope, restated for the oracle
_BN_EPSILON = 1e-5
_LEAKY_SLOPE = 0.1


def graph_forward(graph, params, x: np.ndarray) -> list[np.ndarray]:
    """Every layer's output of ``graph`` on the CHW input ``x``, in order.

    A plain walk over the parsed layers: ``params[i]`` holds layer ``i``'s
    unfrozen convolution parameters (weights, plus biases or batch-norm
    gamma/beta/mean/variance as the layer's ``batch_normalize`` says).
    Convolutions run through :func:`conv_direct` with batch-norm and the
    activation written out here, pools through :func:`maxpool_scan`; route
    and shortcut references (negative ones relative to the layer) are
    resolved here.
    """
    outputs = []
    for i, layer in enumerate(graph.layers):
        a = layer.attrs
        prev = outputs[i - 1] if i else x
        if layer.kind == "convolutional":
            p = params[i]
            pad = (a["size"] - 1) // 2 if a["pad"] else 0
            biases = np.zeros(a["filters"]) if a["batch_normalize"] else p.biases
            z = conv_direct(prev, p.weights, biases, a["stride"], pad)
            if a["batch_normalize"]:
                for f in range(a["filters"]):
                    z[f] = (p.bn_gamma[f] * (z[f] - p.bn_mean[f])
                            / np.sqrt(p.bn_var[f] + _BN_EPSILON) + p.bn_beta[f])
            if a["activation"] == "leaky":
                y = np.where(z > 0, z, _LEAKY_SLOPE * z)
            elif a["activation"] == "sigmoid":
                y = 1.0 / (1.0 + np.exp(-z))
            else:
                y = z
        elif layer.kind == "maxpool":
            y = maxpool_scan(prev, a["size"], a["stride"], a["padding"])
        elif layer.kind == "upsample":
            y = prev.repeat(2, axis=1).repeat(2, axis=2)
        elif layer.kind == "route":
            refs = [r if r >= 0 else i + r for r in a["layers"]]
            y = np.concatenate([outputs[r] for r in refs], axis=0)
        elif layer.kind == "shortcut":
            r = a["from"]
            y = prev + outputs[r if r >= 0 else i + r]
        else:  # [yolo] passes its input through
            y = prev
        outputs.append(y)
    return outputs


def iou_grid_count(a, b, cells: int = 400) -> float:
    """Estimate IoU by counting membership of a fine grid of sample points."""
    ax1, ay1, ax2, ay2 = a.x - a.w / 2, a.y - a.h / 2, a.x + a.w / 2, a.y + a.h / 2
    bx1, by1, bx2, by2 = b.x - b.w / 2, b.y - b.h / 2, b.x + b.w / 2, b.y + b.h / 2
    lo_x, hi_x = min(ax1, bx1), max(ax2, bx2)
    lo_y, hi_y = min(ay1, by1), max(ay2, by2)
    xs = lo_x + (np.arange(cells) + 0.5) * (hi_x - lo_x) / cells
    ys = lo_y + (np.arange(cells) + 0.5) * (hi_y - lo_y) / cells
    cell_area = ((hi_x - lo_x) / cells) * ((hi_y - lo_y) / cells)
    in_a = in_b = in_both = 0
    for y in ys:
        for x in xs:
            pa = ax1 < x < ax2 and ay1 < y < ay2
            pb = bx1 < x < bx2 and by1 < y < by2
            in_a += pa
            in_b += pb
            in_both += pa and pb
    union = (in_a + in_b - in_both) * cell_area
    if union == 0:
        return 0.0
    return (in_both * cell_area) / union


def ap_threshold_enumeration(scored_labels, gt_count: int) -> float:
    """AP by literally enumerating every score threshold.

    ``scored_labels`` is [(score, is_tp)]; at each distinct score s the point
    (recall, precision) counts detections with score >= s, and the AP sum
    uses the maximum precision at any recall at least as large as the step's.
    """
    if gt_count == 0 or not scored_labels:
        return 0.0
    thresholds = sorted({score for score, _ in scored_labels}, reverse=True)
    points = []
    for t in thresholds:
        tp = sum(1 for score, is_tp in scored_labels if score >= t and is_tp)
        fp = sum(1 for score, is_tp in scored_labels if score >= t and not is_tp)
        recall = tp / gt_count
        precision = tp / (tp + fp) if tp + fp else 0.0
        points.append((recall, precision))
    ap = 0.0
    prev_recall = 0.0
    for recall, _ in points:
        if recall <= prev_recall:
            continue
        best = max(p for r, p in points if r >= recall)
        ap += (recall - prev_recall) * best
        prev_recall = recall
    return ap


def _iou_corner(a, b) -> float:
    ax1, ay1 = a.x - a.w / 2, a.y - a.h / 2
    ax2, ay2 = a.x + a.w / 2, a.y + a.h / 2
    bx1, by1 = b.x - b.w / 2, b.y - b.h / 2
    bx2, by2 = b.x + b.w / 2, b.y + b.h / 2
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.w * a.h + b.w * b.h - inter)


def nms_loop(detections, iou_threshold: float):
    """Greedy per-class NMS as a plain loop over pairs of kept detections.

    Within a class, detections are visited by (score desc, input position);
    one is kept unless its IoU with an already kept one exceeds the
    threshold. Output is ordered by (score desc, class, input position).
    """
    by_class = {}
    for pos, det in enumerate(detections):
        by_class.setdefault(det.class_index, []).append((pos, det))
    kept = []
    for cls in sorted(by_class):
        candidates = sorted(by_class[cls], key=lambda pd: (-pd[1].score, pd[0]))
        chosen = []
        for pos, det in candidates:
            if all(_iou_corner(det.box, other.box) <= iou_threshold for _, other in chosen):
                chosen.append((pos, det))
        kept.extend(chosen)
    kept.sort(key=lambda pd: (-pd[1].score, pd[1].class_index, pd[0]))
    return [det for _, det in kept]


def match_loop(detections, ground_truth, iou_threshold: float = 0.5):
    """Greedy VOC matching as a plain loop over every (detection, box) pair.

    Detections are visited by score descending, ties by image id, then box
    coordinates, then class; each takes the unconsumed same-image,
    same-class, non-ignored box of highest IoU (the first in (image, class,
    x, y, w, h) order on ties) and is a TP if that IoU reaches the
    threshold. Otherwise it is dropped if it reaches the threshold with an
    ignore-flagged box of its image, else a FP. Returns [(Detection, bool)]
    in visiting order.
    """
    dets = sorted(
        detections,
        key=lambda d: (-d.score, d.image_id, d.box.x, d.box.y, d.box.w, d.box.h, d.class_index),
    )
    gts = sorted(
        ground_truth,
        key=lambda g: (g.image_id, g.class_index, g.box.x, g.box.y, g.box.w, g.box.h, g.ignore),
    )
    consumed = [False] * len(gts)
    labeled = []
    for det in dets:
        best_index = -1
        best_iou = 0.0
        for gi, gt in enumerate(gts):
            if consumed[gi] or gt.ignore:
                continue
            if gt.image_id != det.image_id or gt.class_index != det.class_index:
                continue
            overlap = _iou_corner(det.box, gt.box)
            if overlap > best_iou:
                best_iou = overlap
                best_index = gi
        if best_index >= 0 and best_iou >= iou_threshold:
            consumed[best_index] = True
            labeled.append((det, True))
            continue
        hit_ignore = False
        for gt in gts:
            if gt.ignore and gt.image_id == det.image_id:
                if _iou_corner(det.box, gt.box) >= iou_threshold:
                    hit_ignore = True
                    break
        if not hit_ignore:
            labeled.append((det, False))
    return labeled


def parse_predictions_loop(text: str) -> list[Detection]:
    """Prediction-file lines parsed one at a time, each line checked in turn.

    Each non-blank line must hold ``image_id class_index score x y w h``: an
    ``int`` class in 0..2**63-1 and ``float`` values that are finite, a
    score in [0, 1] and positive extents. The first bad line raises
    AnnotationError with its line number and the first check it fails.
    """
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
        if cls > 2**63 - 1:
            raise AnnotationError(f"class index {cls} too large", lineno)
        for name, value in zip(("score", "x", "y", "w", "h"), (score, x, y, w, h)):
            if not math.isfinite(value):
                raise AnnotationError(f"non-finite {name} {value}", lineno)
        if not 0 <= score <= 1:
            raise AnnotationError(f"score {score} outside [0, 1]", lineno)
        if w <= 0 or h <= 0:
            raise AnnotationError(f"non-positive box extent {w}x{h}", lineno)
        detections.append(Detection(fields[0], cls, score, Box(x, y, w, h)))
    return detections


def parse_visdrone_loop(text: str, image_id: str) -> list[GroundTruthBox]:
    """Annotation-file lines parsed one at a time, each line checked in turn.

    Each non-blank line must hold ``x,y,w,h,score,category,truncation,occlusion``
    (top-left corners; fields stripped): ``float`` x, y, w, h that are finite
    with positive extents, and an ``int`` category in 0..11, where 0 and 11
    are ignore regions (class -1) and 1..10 the classes 0..9. The first bad
    line raises AnnotationError with its line number and the first check it
    fails. Returns [GroundTruthBox] with center-based boxes.
    """
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
        for name, value in zip("xywh", (x, y, w, h)):
            if not math.isfinite(value):
                raise AnnotationError(f"non-finite {name} {value}", lineno)
        if w <= 0 or h <= 0:
            raise AnnotationError(f"non-positive box extent {w}x{h}", lineno)
        if category in (0, 11):
            cls, ignore = -1, True
        elif 1 <= category <= 10:
            cls, ignore = category - 1, False
        else:
            raise AnnotationError(f"category {category} outside 0..11", lineno)
        boxes.append(GroundTruthBox(image_id, cls, Box(x + w / 2, y + h / 2, w, h), ignore))
    return boxes


def brute_force_evaluate(detections, ground_truth, num_classes: int,
                         iou_threshold: float = 0.5):
    """Independent evaluator: plain-loop matching plus threshold-enumerated AP.

    Returns (per-class AP list, mAP over classes present in the ground truth).
    Matching is :func:`match_loop`, with the production evaluator's
    deterministic ordering contract.
    """
    labeled = match_loop(detections, ground_truth, iou_threshold)
    aps = []
    evaluated = []
    for cls in range(num_classes):
        gt_count = sum(1 for gt in ground_truth if not gt.ignore and gt.class_index == cls)
        scored = [(det.score, is_tp) for det, is_tp in labeled if det.class_index == cls]
        ap = ap_threshold_enumeration(scored, gt_count)
        aps.append(ap)
        if gt_count:
            evaluated.append(ap)
    mean_ap = sum(evaluated) / len(evaluated) if evaluated else 0.0
    return aps, mean_ap
