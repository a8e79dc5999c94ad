"""The benchmark's kit-facing code on the golden fixtures.

``perfbench/checks.py`` and ``perfbench/tracing.py`` read the kit's outputs
with its own readers and count what ``match`` and ``nms`` return. A change to
those return forms that breaks them would fail every benchmark operation
while the kit's own tests pass, so they run here on real results.
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "perfbench"), os.path.join(HERE, "golden")]

import checks  # noqa: E402
import generate  # noqa: E402
import regenerate  # noqa: E402
import tracing  # noqa: E402

from yolokit import evaluation  # noqa: E402
from yolokit.cli import build_parser  # noqa: E402
from yolokit.detect import Detections, nms  # noqa: E402
from yolokit.evaluation import (  # noqa: E402
    GroundTruth,
    Labeled,
    evaluate,
    load_ground_truth,
    match,
    parse_predictions,
    parse_visdrone,
)

GT_DIR = os.path.join(regenerate.EVAL_DIR, "gt")


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def eval_inputs():
    gt_texts = {name[:-4]: _read(os.path.join(GT_DIR, name))
                for name in sorted(os.listdir(GT_DIR)) if name.endswith(".txt")}
    return gt_texts, _read(os.path.join(regenerate.EVAL_DIR, "predictions.txt"))


@pytest.fixture(scope="module")
def detect_predictions():
    return _read(os.path.join(regenerate.DETECT_DIR, "expected", "predictions.txt"))


class TestEvaluatorOracleCheck:
    def test_passes_on_golden_eval(self, eval_inputs):
        assert checks.check_evaluator_oracle(*eval_inputs) == []

    def test_sees_a_wrong_label_from_match(self, eval_inputs, monkeypatch):
        # evaluate reaches match as a module global, as the tracer patches it
        calls = []

        def flip_first_label(*args, **kwargs):
            labeled, counts = match(*args, **kwargs)
            is_tp = labeled.is_tp.copy()
            is_tp[0] = not is_tp[0]
            calls.append(len(labeled))
            return Labeled(labeled.source, labeled.rows, is_tp), counts

        monkeypatch.setattr(evaluation, "match", flip_first_label)
        problems = checks.check_evaluator_oracle(*eval_inputs)
        assert calls and calls[0] > 0
        assert len(problems) == 1 and "brute-force oracle" in problems[0]


def _columns(truth):
    """Each row's image id, then every column's bytes."""
    return ([truth.names[k] for k in truth.image.tolist()],
            *(column.tobytes() for column in (truth.class_index, truth.ignore, truth.x,
                                              truth.y, truth.w, truth.h)))


class TestGroundTruthReaders:
    """The oracle-subset check reads annotations with ``parse_visdrone``, file by
    file; the CLI reads the directory with ``load_ground_truth``."""

    def _assert_same(self, directory):
        boxes = [box for name in sorted(os.listdir(directory)) if name.endswith(".txt")
                 for box in parse_visdrone(_read(os.path.join(directory, name)), name[:-4])]
        assert boxes
        assert _columns(GroundTruth.of(boxes)) == _columns(load_ground_truth(directory))

    def test_golden_eval(self):
        self._assert_same(GT_DIR)

    def test_seeded_benchmark_images(self, tmp_path):
        for seed in (0, 1):
            directory = tmp_path / f"seed{seed}"
            directory.mkdir()
            for index in range(4):
                gt_text, _ = generate.eval_image(seed, index)
                (directory / f"img{index:04d}.txt").write_text(gt_text, encoding="utf-8")
            self._assert_same(directory)


class TestDetectionChecks:
    def test_golden_detect_predictions_pass(self, detect_predictions):
        args = build_parser().parse_args(regenerate.detect_argv("p.txt", "render"))
        problems = checks.check_detections(detect_predictions, ["scene0", "scene1"],
                                           args.conf, args.nms)
        assert problems == {"scene0": [], "scene1": []}

    def test_summary_counts_and_top_rows(self, detect_predictions):
        summary = checks.detection_summary(detect_predictions)
        rows = [line.split() for line in detect_predictions.splitlines()]
        assert sorted(summary) == ["scene0", "scene1"]
        for image_id, entry in summary.items():
            mine = [[int(c), float(s), *map(float, box)]
                    for name, c, s, *box in rows if name == image_id]
            assert entry["count"] == len(mine) > 0
            top = sorted(mine, key=lambda row: -row[1])[: checks.REFERENCE_TOP]
            assert entry["top"] == top


class TestTracingCounts:
    def test_match_counts(self, eval_inputs):
        detections = parse_predictions(eval_inputs[1])
        truth = load_ground_truth(GT_DIR)
        result = match(detections, truth)
        counts = tracing._match_counts((detections, truth), {}, result)
        report = evaluate(detections, truth, 10)
        assert counts == {"detections": len(detections),
                          "tp": sum(c.tp for c in report.per_class),
                          "fp": sum(c.fp for c in report.per_class)}
        assert counts["tp"] > 0 and counts["fp"] > 0

    def test_nms_counts(self, detect_predictions):
        detections = parse_predictions(detect_predictions)
        scene0 = detections.take(detections.image == detections.names.index("scene0"))
        # a second copy of every box is suppressed by the first
        candidates = Detections.concat([scene0, scene0])
        result = nms(candidates, 0.45)
        counts = tracing._nms_counts((candidates, 0.45), {}, result)
        assert counts == {"candidates": 2 * len(scene0), "kept": len(scene0)}
        assert len(scene0) > 0
