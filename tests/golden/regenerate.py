"""Write the golden-output fixtures that ``tests/test_golden.py`` compares against.

    PYTHONPATH=src python tests/golden/regenerate.py

The inputs are a pure function of the seeds below: a 20-image VisDrone-style
eval set (annotation files and one prediction file, with score ties across
images and classes, ignore regions and confused classes), two small PPM
scenes for ``detect``, and a short seed-0 ``train-toy`` run (its synthetic
set is seeded by the run itself). The expected outputs are whatever the ``yolokit`` on
the path writes for them, so run this only when an output change is intended,
and say so in the change's record: the test exists to show that outputs stay
byte-identical.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
EVAL_DIR = os.path.join(HERE, "eval")
DETECT_DIR = os.path.join(HERE, "detect")
TRAIN_DIR = os.path.join(HERE, "train")

EVAL_SEED = 20
EVAL_IMAGES = 20
EVAL_SIZE = (320, 240)
DETECT_SEED = 21
DETECT_SIZES = ((96, 64), (128, 128))  # (width, height)
DETECT_SIZE = 128  # network input
DETECT_CONF = "0.05"
RENDERED = "scene0.ppm"  # the one rendered copy kept as a fixture
TRAIN_STEPS = 20  # 320 training images: every kernel's backward, bit for bit


def eval_argv(out_dir: str) -> list[str]:
    return ["eval", "--gt", os.path.join(EVAL_DIR, "gt"),
            "--pred", os.path.join(EVAL_DIR, "predictions.txt"),
            "--classes", "10", "--out-dir", out_dir]


def detect_argv(out: str, render_dir: str) -> list[str]:
    images = [os.path.join(DETECT_DIR, f"scene{k}.ppm") for k in range(len(DETECT_SIZES))]
    return ["detect", *images, "--model", "yolov3-tiny", "--size", str(DETECT_SIZE),
            "--conf", DETECT_CONF, "--seed", "0", "--out", out, "--render", render_dir]


def train_argv(out: str) -> list[str]:
    return ["train-toy", "--steps", str(TRAIN_STEPS), "--seed", "0", "--out", out]


def run_cli(argv: list[str]) -> str:
    """stdout of one ``yolokit.cli.main`` run; a non-zero exit is an error."""
    from yolokit.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    if code:
        raise SystemExit(f"yolokit {argv[0]} exited with {code}")
    return buffer.getvalue()


def _eval_inputs() -> None:
    rng = np.random.default_rng(EVAL_SEED)
    img_w, img_h = EVAL_SIZE
    gt_dir = os.path.join(EVAL_DIR, "gt")
    os.makedirs(gt_dir)
    pred_lines = []
    for index in range(EVAL_IMAGES):
        image_id = f"im{index:02d}"
        n = int(rng.integers(4, 12))
        w = rng.integers(6, 60, n)
        h = rng.integers(6, 60, n)
        x = rng.integers(0, img_w - w)
        y = rng.integers(0, img_h - h)
        category = rng.integers(0, 12, n)  # 0 and 11 are ignore regions
        with open(os.path.join(gt_dir, f"{image_id}.txt"), "w", encoding="utf-8") as fh:
            for k in range(n):
                fh.write(f"{x[k]},{y[k]},{w[k]},{h[k]},1,{category[k]},0,0\n")
        for k in range(n):  # jittered copies, some twice, some under a wrong class
            for _ in range(int(rng.integers(0, 3))):
                cls = category[k] - 1 if 1 <= category[k] <= 10 else int(rng.integers(10))
                if rng.uniform() < 0.15:
                    cls = int(rng.integers(10))
                cx = x[k] + w[k] / 2 + rng.normal(0, 0.1) * w[k]
                cy = y[k] + h[k] / 2 + rng.normal(0, 0.1) * h[k]
                cw = w[k] * np.exp(rng.normal(0, 0.1))
                ch = h[k] * np.exp(rng.normal(0, 0.1))
                score = round(float(rng.beta(4, 2)), 2)  # two decimals: ties
                pred_lines.append(f"{image_id} {cls} {score} {cx:.2f} {cy:.2f} {cw:.2f} {ch:.2f}")
        for _ in range(int(rng.integers(5, 20))):  # false positives
            fw, fh_ = rng.integers(6, 60, 2)
            fx = rng.uniform(fw / 2, img_w - fw / 2)
            fy = rng.uniform(fh_ / 2, img_h - fh_ / 2)
            score = round(float(rng.beta(1.5, 4)), 2)
            pred_lines.append(
                f"{image_id} {int(rng.integers(10))} {score} {fx:.2f} {fy:.2f} {fw} {fh_}"
            )
    order = rng.permutation(len(pred_lines))
    with open(os.path.join(EVAL_DIR, "predictions.txt"), "w", encoding="utf-8") as fh:
        fh.write("".join(pred_lines[k] + "\n" for k in order))


def _detect_inputs() -> None:
    os.makedirs(DETECT_DIR)
    for index, (w, h) in enumerate(DETECT_SIZES):
        rng = np.random.default_rng([DETECT_SEED, index])
        image = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        with open(os.path.join(DETECT_DIR, f"scene{index}.ppm"), "wb") as fh:
            fh.write(b"P6\n%d %d\n255\n" % (w, h) + image.tobytes())


def main() -> int:
    for directory in (EVAL_DIR, DETECT_DIR, TRAIN_DIR):
        shutil.rmtree(directory, ignore_errors=True)
    _eval_inputs()
    _detect_inputs()

    expected = os.path.join(EVAL_DIR, "expected")
    stdout = run_cli(eval_argv(expected))
    with open(os.path.join(expected, "stdout.txt"), "w", encoding="utf-8") as fh:
        fh.write(stdout)

    expected = os.path.join(DETECT_DIR, "expected")
    os.makedirs(expected)  # detect writes --out only into an existing directory
    render = os.path.join(expected, "render")
    out = os.path.join(expected, "predictions.txt")
    stdout = run_cli(detect_argv(out, render))
    for name in os.listdir(render):
        if name != RENDERED:
            os.remove(os.path.join(render, name))
    with open(os.path.join(expected, "stdout.txt"), "w", encoding="utf-8") as fh:
        fh.write(stdout.replace(out, "{out}"))

    os.makedirs(TRAIN_DIR)
    stdout = run_cli(train_argv(os.path.join(TRAIN_DIR, "loss.csv")))
    with open(os.path.join(TRAIN_DIR, "stdout.txt"), "w", encoding="utf-8") as fh:
        fh.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
