"""Seeded benchmark inputs: PPM images, a weights file, VisDrone-format data.

Every generator is a pure function of its seed and the constants below, so
the same seed gives byte-identical files on any commit. The weights file is
built with the kit's own ``random_init``/``save_weights_file`` from a fixed
seed; only the images and the evaluation data follow the run's seed.
"""

from __future__ import annotations

import os

import numpy as np

# (width, height) of the detect images: landscape, 4:3, portrait and square,
# so letterboxing pads on either axis or not at all.
DETECT_IMAGE_SIZES = ((1280, 720), (640, 480), (480, 640), (1024, 1024))

DETECT_MODEL = "yolov3_spp"
DETECT_CLASSES = 10

# A random-init network's heads are degenerate: every raw value is within
# ~1e-4 of 0, so every score is 0.25 and NMS order is decided by rounding
# noise. Scaling the last convolution before each [yolo] layer (graph order:
# stride 32, 16, 8) brings the raw values to a standard deviation of about 1,
# and a fixed objectness bias sets how many cells pass the confidence
# threshold: ~400 per image at --conf 0.25 (640 px) and ~5k at --conf 0.05 (416 px).
# The weights use a fixed seed, so the candidate counts, and with them the
# O(n^2) NMS cost, do not swing with the run's seed.
WEIGHTS_SEED = 0
HEAD_GAINS = (8e4, 2e4, 1.7e4)
OBJECTNESS_BIAS = -2.5

# VisDrone-scale evaluation set.
EVAL_IMAGES = 548
EVAL_IMAGE_SIZE = (1360, 765)
EVAL_GT_PER_IMAGE = 100
EVAL_PREDICTIONS_PER_IMAGE = 500
EVAL_IGNORE_SHARE = 0.08
# VisDrone categories 1..10, skewed toward cars and pedestrians.
EVAL_CLASS_SHARES = (0.20, 0.10, 0.04, 0.35, 0.07, 0.04, 0.03, 0.03, 0.04, 0.10)
EVAL_DETECTED_SHARE = 0.7   # ground-truth boxes that get a jittered copy
EVAL_CONFUSED_SHARE = 0.15  # copies emitted under a wrong class


def ppm_bytes(image: np.ndarray) -> bytes:
    """Encode an (H, W, 3) uint8 array as binary P6."""
    h, w, _ = image.shape
    return b"P6\n%d %d\n255\n" % (w, h) + image.tobytes()


def detect_image(seed: int, index: int) -> np.ndarray:
    """One (H, W, 3) uint8 scene: noise plus a dozen flat-colored rectangles."""
    w, h = DETECT_IMAGE_SIZES[index]
    rng = np.random.default_rng([seed, index])
    image = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    for _ in range(12):
        bw = int(rng.integers(20, w // 3))
        bh = int(rng.integers(20, h // 3))
        x0 = int(rng.integers(0, w - bw))
        y0 = int(rng.integers(0, h - bh))
        image[y0 : y0 + bh, x0 : x0 + bw] = rng.integers(0, 256, size=3, dtype=np.uint8)
    return image


def write_detect_images(seed: int, directory: str) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    paths = []
    for index in range(len(DETECT_IMAGE_SIZES)):
        path = os.path.join(directory, f"img{index}.ppm")
        with open(path, "wb") as fh:
            fh.write(ppm_bytes(detect_image(seed, index)))
        paths.append(path)
    return paths


def detect_network():
    """The detect workloads' network in float32, as it will be saved."""
    from yolokit.cfg import builtin_graph
    from yolokit.weights import random_init

    graph = builtin_graph(DETECT_MODEL, DETECT_CLASSES)
    net = random_init(graph, seed=WEIGHTS_SEED, dtype=np.float32)
    head_convs = [i - 1 for i, layer in enumerate(graph.layers) if layer.kind == "yolo"]
    per_anchor = 5 + DETECT_CLASSES
    for gain, index in zip(HEAD_GAINS, head_convs):
        p = net.params[index]
        p.weights = p.weights * np.float32(gain)
        p.biases = p.biases.copy()
        p.biases[4::per_anchor] = OBJECTNESS_BIAS
    return net


def write_detect_weights(path: str) -> None:
    from yolokit.weights import save_weights_file

    save_weights_file(detect_network(), path)


def _eval_boxes(rng, n, img_w, img_h):
    """n integer (x, y, w, h) boxes with top-left corners inside the image."""
    w = np.exp(rng.uniform(np.log(6), np.log(120), n)).round().clip(2, img_w - 1)
    h = np.exp(rng.uniform(np.log(6), np.log(120), n)).round().clip(2, img_h - 1)
    x = np.floor(rng.uniform(0, 1, n) * (img_w - w))
    y = np.floor(rng.uniform(0, 1, n) * (img_h - h))
    return x, y, w, h


def eval_image(seed: int, index: int) -> tuple[str, str]:
    """(annotation text, prediction lines) of one evaluation image."""
    rng = np.random.default_rng([seed, 1_000_000 + index])
    image_id = f"img{index:04d}"
    img_w, img_h = EVAL_IMAGE_SIZE
    n = EVAL_GT_PER_IMAGE
    x, y, w, h = _eval_boxes(rng, n, img_w, img_h)
    category = rng.choice(np.arange(1, 11), size=n, p=EVAL_CLASS_SHARES)
    category[rng.uniform(0, 1, n) < EVAL_IGNORE_SHARE] = 0
    gt_lines = [
        f"{int(x[i])},{int(y[i])},{int(w[i])},{int(h[i])},{0 if category[i] == 0 else 1},"
        f"{category[i]},0,0"
        for i in range(n)
    ]

    real = np.flatnonzero(category > 0)
    copies = real[rng.uniform(0, 1, real.size) < EVAL_DETECTED_SHARE]
    m = copies.size
    cls = category[copies] - 1
    confused = rng.uniform(0, 1, m) < EVAL_CONFUSED_SHARE
    cls[confused] = rng.integers(0, 10, int(confused.sum()))
    cw = w[copies] * np.exp(rng.normal(0, 0.15, m))
    ch = h[copies] * np.exp(rng.normal(0, 0.15, m))
    cx = x[copies] + w[copies] / 2 + rng.normal(0, 0.12, m) * w[copies]
    cy = y[copies] + h[copies] / 2 + rng.normal(0, 0.12, m) * h[copies]
    cscore = rng.beta(4, 2, m)

    k = EVAL_PREDICTIONS_PER_IMAGE - m
    fx, fy, fw, fh = _eval_boxes(rng, k, img_w, img_h)
    fcls = rng.choice(np.arange(10), size=k, p=EVAL_CLASS_SHARES)
    fscore = rng.beta(1.5, 4, k)

    cls = np.concatenate([cls, fcls])
    score = np.concatenate([cscore, fscore])
    bx = np.concatenate([cx, fx + fw / 2])
    by = np.concatenate([cy, fy + fh / 2])
    bw = np.concatenate([cw, fw])
    bh = np.concatenate([ch, fh])
    order = rng.permutation(cls.size)
    pred_lines = [
        f"{image_id} {cls[i]} {score[i]:.6f} {bx[i]:.2f} {by[i]:.2f} {bw[i]:.2f} {bh[i]:.2f}"
        for i in order
    ]
    return "\n".join(gt_lines) + "\n", "\n".join(pred_lines) + "\n"


def write_eval_set(seed: int, gt_dir: str, pred_path: str) -> None:
    """Write one annotation file per image and a single prediction file."""
    os.makedirs(gt_dir, exist_ok=True)
    with open(pred_path, "w", encoding="utf-8") as pred:
        for index in range(EVAL_IMAGES):
            gt_text, pred_text = eval_image(seed, index)
            with open(os.path.join(gt_dir, f"img{index:04d}.txt"), "w", encoding="utf-8") as fh:
                fh.write(gt_text)
            pred.write(pred_text)
