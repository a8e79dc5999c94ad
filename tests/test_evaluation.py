"""Annotation parsing, matching, AP/mAP, and report emission."""

import os
import re
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from yolokit import evaluation
from yolokit.detect import Box, Detection, Detections, corner_table
from yolokit.errors import AnnotationError, ValidationError
from yolokit.evaluation import (
    GroundTruth,
    ClassResult,
    EvalReport,
    GroundTruthBox,
    Labeled,
    average_precision,
    check_image_id,
    evaluate,
    format_predictions,
    format_report_table,
    load_ground_truth,
    match,
    parse_predictions,
    parse_visdrone,
    pr_curve,
    precision_recall,
    report_csv,
    write_report_files,
)
from yolokit.oracles import ap_threshold_enumeration, brute_force_evaluate, match_loop
from visdrone_writer import format_visdrone
from box_iou import box_iou

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden"))
import regenerate  # noqa: E402


def det(image_id, cls, score, x, y, w, h):
    return Detection(image_id, cls, score, Box(x, y, w, h))


def gt(image_id, cls, x, y, w, h, ignore=False):
    return GroundTruthBox(image_id, -1 if ignore else cls, Box(x, y, w, h), ignore)


def labels(detections, truth, iou_threshold=0.5):
    """:func:`match`'s labels of lists of rows as (Detection, is_tp) pairs in
    order, and its counts."""
    labeled, counts = match(Detections.of(detections), GroundTruth.of(truth), iou_threshold)
    assert isinstance(labeled, Labeled)
    return list(zip(labeled.detections, labeled.is_tp.tolist())), counts


class TestVisdroneParsing:
    def test_car_line(self):
        boxes = parse_visdrone("100,200,50,80,1,4,0,1\n", "im0")
        assert len(boxes) == 1
        box = boxes[0]
        assert box.class_index == 3  # car
        assert (box.box.x, box.box.y) == (125.0, 240.0)
        assert (box.box.w, box.box.h) == (50.0, 80.0)
        assert not box.ignore

    def test_ignored_region(self):
        box = parse_visdrone("0,0,30,30,0,0,0,0\n", "im0")[0]
        assert box.ignore

    def test_others_category_ignored(self):
        assert parse_visdrone("0,0,30,30,1,11,0,0\n", "im0")[0].ignore

    def test_wrong_field_count(self):
        with pytest.raises(AnnotationError) as err:
            parse_visdrone("100,200,50\n", "im0")
        assert err.value.line == 1

    def test_negative_extent(self):
        with pytest.raises(AnnotationError):
            parse_visdrone("10,10,-5,10,1,1,0,0\n", "im0")

    def test_category_out_of_range(self):
        with pytest.raises(AnnotationError):
            parse_visdrone("10,10,5,10,1,12,0,0\n", "im0")

    def test_line_numbers_reported(self):
        text = "10,10,5,10,1,1,0,0\nbroken\n"
        with pytest.raises(AnnotationError) as err:
            parse_visdrone(text, "im0")
        assert err.value.line == 2

    @staticmethod
    def _random_boxes(rng, n, grid):
        """n boxes with numpy scalar coordinates, as a caller may pass them;
        on the pixel grid the edges and extents are whole pixels."""
        x, y = rng.uniform(150, 2000, (2, n))
        w, h = rng.uniform(0.5, 300, (2, n))
        if grid:
            w, h = np.ceil(w), np.ceil(h)
            x, y = np.floor(x - w / 2) + w / 2, np.floor(y - h / 2) + h / 2
        classes = rng.integers(-1, 10, n)
        return [GroundTruthBox("im0", int(c), Box(*box), bool(c < 0))
                for c, *box in zip(classes, x, y, w, h)]

    def test_format_round_trips_float_boxes(self):
        boxes = self._random_boxes(np.random.default_rng(23), 2000, grid=False)
        reparsed = parse_visdrone(format_visdrone(boxes), "im0")
        assert [(g.class_index, g.ignore) for g in reparsed] == [
            (g.class_index, g.ignore) for g in boxes]
        want, got = (np.array([(g.box.x, g.box.y, g.box.w, g.box.h) for g in gts])
                     for gts in (boxes, reparsed))
        assert (np.abs(got - want) / want).max() <= 1e-12

    def test_format_round_trips_pixel_grid_boxes_bitwise(self):
        boxes = self._random_boxes(np.random.default_rng(24), 2000, grid=True)
        reparsed = parse_visdrone(format_visdrone(boxes), "im0")
        assert [(g.class_index, g.box, g.ignore) for g in reparsed] == [
            (g.class_index, g.box, g.ignore) for g in boxes]


class TestPredictionFormat:
    def test_round_trip(self):
        dets = [
            det("im0", 2, 0.75, 10.5, 20.25, 5.0, 8.0),
            det("im1", 0, 1.0, 1.0, 2.0, 3.0, 4.0),
        ]
        assert list(parse_predictions(format_predictions(Detections.of(dets)))) == dets

    def test_numpy_scalars_round_trip(self):
        dets = [
            det("im0", np.int64(3), np.float64(0.5), np.float64(565.4404296875),
                np.float32(20.25), np.float64(5.0), np.float32(8.5)),
        ]
        text = format_predictions(Detections.of(dets))
        assert "np." not in text
        assert text == format_predictions(
            Detections.of([det("im0", 3, 0.5, 565.4404296875, 20.25, 5.0, 8.5)]))
        assert list(parse_predictions(text)) == dets

    def test_field_count_error(self):
        with pytest.raises(AnnotationError):
            parse_predictions("im0 1 0.5 10 10 5\n")

    @pytest.mark.parametrize("image_id", ["a b", "", "x\ty", " a", "a\n", "a\u2028b", "a\x1eb"])
    def test_image_id_that_would_not_parse_back_rejected(self, image_id):
        # these were written into lines the reader splits into 6 or 8 fields,
        # or into another id
        dets = [det("ok", 0, 0.5, 1, 1, 1, 1), det(image_id, 0, 0.5, 1, 1, 1, 1)]
        with pytest.raises(ValidationError, match="empty or holds whitespace"):
            check_image_id(image_id)
        with pytest.raises(ValidationError, match=re.escape(repr(image_id))):
            format_predictions(Detections.of(dets))

    def test_score_range_checked(self):
        with pytest.raises(AnnotationError):
            parse_predictions("im0 1 1.5 10 10 5 5\n")


class TestMatching:
    def test_perfect_match(self):
        truth = [gt("im0", 0, 10, 10, 8, 8)]
        labeled, counts = labels([det("im0", 0, 0.9, 10, 10, 8, 8)], truth)
        assert labeled == [(det("im0", 0, 0.9, 10, 10, 8, 8), True)]
        assert counts == {0: 1}

    def test_duplicate_detection_is_fp(self):
        truth = [gt("im0", 0, 10, 10, 8, 8)]
        dets = [
            det("im0", 0, 0.9, 10, 10, 8, 8),
            det("im0", 0, 0.8, 11, 10, 8, 8),
        ]
        labeled, _ = labels(dets, truth)
        assert [is_tp for _, is_tp in labeled] == [True, False]

    def test_ignore_region_discards(self):
        truth = [gt("im0", 0, 10, 10, 20, 20, ignore=True)]
        labeled, counts = labels([det("im0", 1, 0.9, 10, 10, 20, 20)], truth)
        assert labeled == []
        assert counts == {}

    def test_class_mismatch_is_fp(self):
        truth = [gt("im0", 0, 10, 10, 8, 8)]
        labeled, _ = labels([det("im0", 1, 0.9, 10, 10, 8, 8)], truth)
        assert labeled[0][1] is False

    def test_below_threshold_is_fp(self):
        truth = [gt("im0", 0, 10, 10, 8, 8)]
        labeled, _ = labels([det("im0", 0, 0.9, 30, 30, 8, 8)], truth)
        assert labeled[0][1] is False

    def test_equal_iou_takes_first_box_in_coordinate_order(self):
        # A overlaps both boxes at IoU 0.6; taking the x=9 box leaves B
        # only the x=11 box, at IoU 1/7
        truth = [gt("im0", 0, 11, 10, 4, 4), gt("im0", 0, 9, 10, 4, 4)]
        a = det("im0", 0, 0.9, 10, 10, 4, 4)
        b = det("im0", 0, 0.8, 8, 10, 4, 4)
        for boxes in (truth, truth[::-1]):
            labeled, _ = labels([b, a], boxes)
            assert labeled == [(a, True), (b, False)]

    def test_ignore_flag_not_class_marks_regions(self):
        region = GroundTruthBox("im0", 0, Box(10, 10, 8, 8), ignore=True)
        labeled, counts = labels([det("im0", 0, 0.9, 10, 10, 8, 8)], [region])
        assert labeled == [] and counts == {}

    @pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ValidationError):
            match(Detections.of([]), GroundTruth.of([]), threshold)

    def test_empty_inputs(self):
        truth = [gt("im0", 0, 10, 10, 8, 8), gt("im0", 1, 10, 10, 8, 8, ignore=True)]
        dets = [det("im0", 0, 0.5, 30, 30, 8, 8), det("im1", 2, 0.5, 30, 30, 8, 8)]
        assert labels([], truth) == ([], {0: 1})
        assert labels([], []) == ([], {})
        labeled, counts = labels(dets, [])
        assert labeled == match_loop(dets, [])
        assert counts == {}

    def test_labels_the_given_table(self):
        truth = [gt("im0", 0, 10, 10, 8, 8)]
        dets = [det("im0", 0, 0.9, 10, 10, 8, 8), det("im0", 0, 0.8, 11, 10, 8, 8)]
        for rows, boxes in ((dets, truth), ([], [])):
            given = Detections.of(rows)
            labeled, _ = match(given, GroundTruth.of(boxes))
            assert type(labeled) is Labeled and labeled.source is given
            assert type(labeled.detections) is Detections
            assert list(labeled.detections) == rows
            assert labeled.is_tp.tolist() == [True, False][: len(rows)]

    def test_matches_oracle_loop(self):
        # integer boxes and one-decimal scores make score ties across images
        # and classes, equal IoUs and IoU exactly at the threshold
        rng = np.random.default_rng(11)
        seen = Counter()
        for trial in range(240):
            threshold = (1 / 3, 0.5, 0.45)[trial % 3]
            n_classes = 1 + trial % 3
            images = [f"im{k}" for k in range(int(rng.integers(1, 4)))]

            def box():
                return Box(*rng.integers(0, 6, 2).tolist(), *rng.integers(1, 5, 2).tolist())

            truth = []
            for _ in range(int(rng.integers(0, 16))):
                image_id = images[int(rng.integers(len(images)))]
                if rng.random() < 0.2:  # ignore regions carry -1 or a real class
                    cls = int(rng.integers(-1, n_classes))
                    truth.append(GroundTruthBox(image_id, cls, box(), ignore=True))
                else:
                    truth.append(GroundTruthBox(image_id, int(rng.integers(n_classes)), box()))
            dets = [
                Detection(images[int(rng.integers(len(images)))], int(rng.integers(n_classes)),
                          round(float(rng.uniform(0.05, 1.0)), 1), box())
                for _ in range(int(rng.integers(0, 30)))
            ]

            # row for row, in order
            labeled, counts = labels(dets, truth, threshold)
            assert labeled == match_loop(dets, truth, threshold)
            assert counts == Counter(g.class_index for g in truth if not g.ignore)

            pairs = [(d, g) for d in dets for g in truth if d.image_id == g.image_id]
            same_class = [(d, g) for d, g in pairs if not g.ignore
                          and g.class_index == d.class_index]
            seen["at threshold"] += any(box_iou(d.box, g.box) == threshold
                                        for d, g in same_class)
            seen["equal IoU"] += any(
                box_iou(d.box, g.box) == box_iou(d.box, h.box) >= threshold
                for d, g in same_class for e, h in same_class if e is d and h is not g
            )
            seen["classed region hit"] += any(
                g.ignore and g.class_index != -1 and box_iou(d.box, g.box) >= threshold
                for d, g in pairs
            )
            seen["dets without truth"] += bool(
                {d.image_id for d in dets} - {g.image_id for g in truth})
            seen["truth without dets"] += bool(
                {g.image_id for g in truth} - {d.image_id for d in dets})
            seen["no dets"] += not dets
            seen["no truth"] += not truth
        assert seen["at threshold"] >= 20
        assert min(seen.values()) >= 5, seen


@pytest.fixture(scope="module")
def golden_eval():
    """The golden eval set: its predictions, its ground truth as columns and as boxes."""
    gt_dir = os.path.join(regenerate.EVAL_DIR, "gt")
    with open(os.path.join(regenerate.EVAL_DIR, "predictions.txt"), encoding="utf-8") as fh:
        dets = parse_predictions(fh)
    boxes = []
    for name in sorted(os.listdir(gt_dir)):
        with open(os.path.join(gt_dir, name), encoding="utf-8") as fh:
            boxes += parse_visdrone(fh.read(), name[:-4])
    return dets, load_ground_truth(gt_dir), boxes


def _columns(detections):
    return [detections.names] + [getattr(detections, f).tobytes() for f in (
        "image", "class_index", "score", "x", "y", "w", "h")]


class TestMatchBlocks:
    """``match`` works on one block of whole images at a time; the block size
    changes no label."""

    @pytest.mark.parametrize("block", [1, 3])
    def test_labels_do_not_depend_on_it(self, monkeypatch, golden_eval, block):
        dets, truth, _ = golden_eval
        want, want_counts = match(dets, truth)
        tables = []

        def counted(*args):
            tables.append(len(args[0]))
            return corner_table(*args)

        monkeypatch.setattr(evaluation, "MATCH_BLOCK", block)
        monkeypatch.setattr(evaluation, "corner_table", counted)
        got, counts = match(dets, truth)
        assert counts == want_counts
        assert _columns(got.detections) == _columns(want.detections)
        assert got.is_tp.tobytes() == want.is_tp.tobytes()
        assert 0 < want.is_tp.sum() < len(want) < len(dets)  # TPs, FPs and discards
        # the boxes, the regions, then one table per block; each image of
        # the golden set has more than 3 detections, so it is a block alone
        assert len(tables) == 2 + len(dets.names) and sum(tables[2:]) == len(dets)

    def test_one_image_blocks_score_like_brute_force(self, monkeypatch, golden_eval):
        dets, truth, boxes = golden_eval
        monkeypatch.setattr(evaluation, "MATCH_BLOCK", 1)
        report = evaluate(dets, truth, 10)
        oracle_aps, oracle_map = brute_force_evaluate(list(dets), boxes, 10)
        assert max(abs(c.ap - ap) for c, ap in zip(report.per_class, oracle_aps)) <= 1e-9
        assert abs(report.map_fraction - oracle_map) <= 1e-9
        assert report.map_fraction > 0


class TestLabeled:
    """``match`` returns the caller's columns with the kept rows, not a copy."""

    def test_holds_the_callers_columns(self, golden_eval):
        dets, truth, _ = golden_eval
        labeled, _ = match(dets, truth)
        assert labeled.source is dets
        assert labeled.rows.dtype == np.int64
        assert len(labeled) == len(labeled.rows) == len(labeled.is_tp) < len(dets)

    def test_detections_are_the_kept_rows_in_order(self, golden_eval):
        dets, truth, boxes = golden_eval
        labeled, _ = match(dets, truth)
        want = match_loop(list(dets), boxes)
        assert list(labeled.detections) == [d for d, _ in want]
        assert labeled.is_tp.tolist() == [is_tp for _, is_tp in want]
        assert _columns(labeled.detections) == _columns(dets.take(labeled.rows))

    def test_iterates_as_the_kept_tables_rows(self, golden_eval):
        dets, truth, _ = golden_eval
        labeled, _ = match(dets, truth)
        pairs = list(labeled)
        assert pairs == list(zip(labeled.detections.rows(), labeled.is_tp.tolist()))
        assert len(pairs) == len(labeled) and pairs[0][0][0] in dets.names


class TestCanonicalOrder:
    def test_equals_one_lexsort_of_every_row(self):
        # few distinct values, so most rows tie on the score and many on
        # every key; NaN scores sort last, and -0.0 ties with 0.0
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(0, 60))
            score = rng.choice([0.0, -0.0, 0.25, 0.5, float("nan")], n)
            image, cls, x, y, w, h = rng.integers(0, 3, (6, n))
            dets = Detections(("a", "b", "c"), image, cls, score, *(v.astype(np.float64)
                                                                    for v in (x, y, w, h)))
            want = np.lexsort((cls, h, w, y, x, image, -score))
            assert evaluation._canonical_order(dets).tolist() == want.tolist()


class TestPrecisionRecall:
    def test_eight_two_two(self):
        assert precision_recall(8, 2, 2) == (0.8, 0.8)

    def test_zero_denominators(self):
        assert precision_recall(0, 0, 0) == (0.0, 0.0)
        assert precision_recall(0, 0, 5) == (0.0, 0.0)

    def test_perfect_detector(self):
        assert precision_recall(7, 0, 0) == (1.0, 1.0)


def ap(scored, gt_count):
    """The AP of [(score, is_tp)] labels in descending-score order."""
    return average_precision(*pr_curve([s for s, _ in scored], [t for _, t in scored], gt_count))


class TestAveragePrecision:
    def test_single_tp(self):
        assert ap([(0.9, True)], 1) == 1.0

    def test_hand_worked_five_sixths(self):
        scored = [(0.9, True), (0.8, False), (0.7, True)]
        assert ap(scored, 2) == pytest.approx(5 / 6, abs=1e-12)
        assert ap_threshold_enumeration(scored, 2) == pytest.approx(ap(scored, 2), abs=1e-12)

    def test_all_fp(self):
        assert ap([(0.9, False), (0.5, False)], 3) == 0.0

    def test_no_ground_truth(self):
        assert ap([(0.9, True)], 0) == 0.0

    @pytest.mark.parametrize("gt_count", [0, 1, 3])
    def test_no_detections(self, gt_count):
        recalls, precisions = pr_curve([], [], gt_count)
        assert len(recalls) == len(precisions) == 0
        assert average_precision(recalls, precisions) == 0.0

    def test_curve_columns(self):
        # one point per distinct score, ties entering together
        recalls, precisions = pr_curve(np.array([0.9, 0.5, 0.5, 0.2]),
                                       np.array([True, False, True, False]), 4)
        assert recalls.tolist() == [0.25, 0.5, 0.5]
        assert precisions.tolist() == [1.0, 2 / 3, 0.5]
        recalls, _ = pr_curve([0.9, 0.8], [True, False], 0)
        assert recalls.tolist() == [0.0, 0.0]

    def test_zero_score_fp_never_raises_ap(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(1, 8))
            scored = sorted(
                ((float(rng.uniform(0.1, 1)), bool(rng.integers(2))) for _ in range(n)),
                reverse=True,
            )
            gt_count = max(1, sum(t for _, t in scored))
            base = ap(scored, gt_count)
            worse = ap(scored + [(0.0, False)], gt_count)
            assert worse <= base + 1e-15

    def test_score_scaling_invariance(self):
        rng = np.random.default_rng(1)
        scored = sorted(
            ((float(rng.uniform(0.1, 1)), bool(rng.integers(2))) for _ in range(10)),
            reverse=True,
        )
        base = ap(scored, 4)
        for factor in (0.5, 0.125, 1.0):
            scaled = [(s * factor, t) for s, t in scored]
            assert ap(scaled, 4) == pytest.approx(base, abs=1e-15)

    def test_tied_scores_match_threshold_enumeration(self):
        scored = [(0.5, True), (0.5, False), (0.5, True), (0.2, False)]
        assert ap(scored, 2) == pytest.approx(ap_threshold_enumeration(scored, 2), abs=1e-15)


def _random_curves(seed):
    """pr_curve columns with ties, long runs of equal recall, all-FP and gt_count 0 curves."""
    rng = np.random.default_rng(seed)
    for trial in range(80):
        n = int(rng.integers(0, 400))
        scores = np.sort(rng.integers(0, 40, n) / 40)[::-1]
        is_tp = rng.random(n) < (0.0, 0.02, 0.3, 0.9)[trial % 4]  # all FP first
        gt_count = 0 if trial % 5 == 0 else int(is_tp.sum()) + int(rng.integers(0, 6))
        yield pr_curve(scores, is_tp, gt_count)


def _ap_running_total(recalls, precisions):
    """average_precision as a running total over the recall steps."""
    envelope = np.maximum.accumulate(precisions[::-1])[::-1]
    total, reached = 0.0, 0.0
    for r, p in zip(recalls.tolist(), envelope.tolist()):
        if r > reached:
            total += (r - reached) * p
            reached = r
    return total


class TestCurveColumns:
    def test_ap_is_the_running_total_bit_for_bit(self):
        rng = np.random.default_rng(3)
        curves = list(_random_curves(2))
        curves += [(rng.uniform(0, 1, 50), rng.uniform(0, 1, 50)) for _ in range(20)]  # unsorted
        for recalls, precisions in curves:
            got = average_precision(recalls, precisions)
            assert type(got) is float
            assert got.hex() == _ap_running_total(recalls, precisions).hex()

    @pytest.mark.parametrize("block", [1, 3, 4096])
    def test_csv_is_the_per_point_writer(self, monkeypatch, tmp_path, block):
        # the curve is written in blocks of lines; any block size gives the same text
        monkeypatch.setattr(evaluation, "PARSE_BLOCK_LINES", block)
        curves = list(_random_curves(4))
        per_class = [ClassResult(k, 0.0, 0, 0, 0, 0, recalls, precisions)
                     for k, (recalls, precisions) in enumerate(curves)]
        write_report_files(EvalReport(per_class, 0.0, 0.0, 0.0), tmp_path)
        for k, (recalls, precisions) in enumerate(curves):
            lines = ["recall,precision"] + [f"{r!r},{p!r}" for r, p in zip(recalls.tolist(),
                                                                            precisions.tolist())]
            assert (tmp_path / f"pr_class{k}.csv").read_text() == "\n".join(lines) + "\n"


class TestEvaluate:
    def test_null_detector(self):
        truth = [gt("im0", 0, 10, 10, 8, 8), gt("im0", 1, 30, 30, 8, 8)]
        report = evaluate(Detections.of([]), truth, 2)
        assert report.map_percent == 0.0
        assert report.recall == 0.0

    def test_oracle_detector(self):
        truth = [gt(f"im{k}", k % 2, 10 + k, 10, 8, 8) for k in range(6)]
        dets = [Detection(g.image_id, g.class_index, 1.0, g.box) for g in truth]
        report = evaluate(Detections.of(dets), truth, 2)
        assert report.map_percent == 100.0
        assert report.precision == 1.0 and report.recall == 1.0

    def test_counts_conserved(self):
        rng = np.random.default_rng(2)
        truth = [
            gt("im0", int(rng.integers(2)), *rng.uniform(10, 80, 2), *rng.uniform(5, 20, 2))
            for _ in range(8)
        ]
        dets = [
            det("im0", int(rng.integers(2)), float(rng.uniform(0.1, 1)),
                *rng.uniform(10, 80, 2), *rng.uniform(5, 20, 2))
            for _ in range(8)
        ]
        report = evaluate(Detections.of(dets), truth, 2)
        for result in report.per_class:
            assert result.tp + result.fn == result.gt_count

    def test_classes_absent_from_gt_excluded_from_map(self):
        truth = [gt("im0", 0, 10, 10, 8, 8)]
        dets = [det("im0", 0, 0.9, 10, 10, 8, 8), det("im0", 1, 0.8, 40, 40, 8, 8)]
        report = evaluate(Detections.of(dets), truth, 3)
        assert [c.class_index for c in report.per_class if c.gt_count] == [0]
        assert report.map_percent == 100.0

    def test_class_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            evaluate(Detections.of([det("im0", 5, 0.9, 1, 1, 2, 2)]), [], 3)

    @pytest.mark.parametrize("num_classes, score_threshold, option", [
        (1, float("nan"), "score_threshold"), (1, -5.0, "score_threshold"),
        (1, 1.5, "score_threshold"), (1, float("inf"), "score_threshold"),
        (0, None, "num_classes"), (-1, 0.5, "num_classes"),
    ])
    def test_out_of_range_option_rejected(self, num_classes, score_threshold, option):
        # one matching box: these once scored 0.0, 100.0 and 0.0 mAP, or named a
        # class range "0..-1", instead of refusing the option
        truth = [gt("im0", 0, 10, 10, 8, 8)]
        dets = [det("im0", 0, 0.9, 10, 10, 8, 8)]
        with pytest.raises(ValidationError, match=option):
            evaluate(Detections.of(dets), truth, num_classes, score_threshold=score_threshold)

    @pytest.mark.parametrize("iou_threshold, score_threshold, map_percent", [
        (0.5, 0.0, 100.0), (0.5, 1.0, 0.0), (1.0, None, 100.0), (1e-9, None, 100.0),
    ])
    def test_option_bounds_accepted(self, iou_threshold, score_threshold, map_percent):
        truth = [gt("im0", 0, 10, 10, 8, 8)]
        dets = [det("im0", 0, 0.9, 10, 10, 8, 8)]
        report = evaluate(Detections.of(dets), truth, 1, iou_threshold=iou_threshold,
                          score_threshold=score_threshold)
        assert report.map_percent == map_percent

    def test_score_threshold_filters(self):
        truth = [gt("im0", 0, 10, 10, 8, 8)]
        dets = [det("im0", 0, 0.2, 10, 10, 8, 8)]
        report = evaluate(Detections.of(dets), truth, 1, score_threshold=0.5)
        assert report.recall == 0.0
        assert report.score_threshold == 0.5

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            num_classes = int(rng.integers(1, 4))
            truth = [
                gt(
                    f"im{int(rng.integers(3))}",
                    int(rng.integers(num_classes)),
                    *rng.uniform(10, 90, 2),
                    *rng.uniform(6, 25, 2),
                    ignore=bool(rng.random() < 0.15),
                )
                for _ in range(int(rng.integers(0, 9)))
            ]
            dets = [
                det(
                    f"im{int(rng.integers(3))}",
                    int(rng.integers(num_classes)),
                    round(float(rng.uniform(0.05, 1)), 2),
                    *rng.uniform(10, 90, 2),
                    *rng.uniform(6, 25, 2),
                )
                for _ in range(int(rng.integers(0, 9)))
            ]
            report = evaluate(Detections.of(dets), truth, num_classes)
            oracle_aps, oracle_map = brute_force_evaluate(dets, truth, num_classes)
            for result, oracle_ap in zip(report.per_class, oracle_aps):
                assert abs(result.ap - oracle_ap) <= 1e-9
            assert abs(report.map_fraction - oracle_map) <= 1e-9

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        truth = [
            gt("im0", int(rng.integers(2)), *rng.uniform(10, 80, 2), *rng.uniform(5, 20, 2))
            for _ in range(6)
        ]
        dets = [
            det("im0", int(rng.integers(2)), round(float(rng.uniform(0.1, 1)), 1),
                *rng.uniform(10, 80, 2), *rng.uniform(5, 20, 2))
            for _ in range(6)
        ]
        baseline = evaluate(Detections.of(dets), truth, 2)
        for _ in range(5):
            d2, t2 = list(dets), list(truth)
            rng.shuffle(d2)
            rng.shuffle(t2)
            again = evaluate(Detections.of(d2), t2, 2)
            assert [c.ap for c in again.per_class] == [c.ap for c in baseline.per_class]
            assert again.map_fraction == baseline.map_fraction

    def test_monotone_recall_curve(self):
        rng = np.random.default_rng(5)
        truth = [gt("im0", 0, *rng.uniform(10, 80, 2), *rng.uniform(5, 20, 2)) for _ in range(5)]
        dets = [
            det("im0", 0, float(rng.uniform(0.1, 1)), *rng.uniform(10, 80, 2),
                *rng.uniform(5, 20, 2))
            for _ in range(8)
        ]
        report = evaluate(Detections.of(dets), truth, 1)
        recalls = report.per_class[0].recalls
        assert isinstance(recalls, np.ndarray) and recalls.dtype == np.float64
        assert len(recalls) == len(report.per_class[0].precisions) > 1
        assert (np.diff(recalls) >= 0).all()


class TestReports:
    def _five_sixths_report(self):
        truth = [gt("im0", 0, 20, 20, 10, 10), gt("im0", 0, 60, 60, 10, 10)]
        dets = [
            det("im0", 0, 0.9, 20, 20, 10, 10),
            det("im0", 0, 0.8, 40, 40, 10, 10),
            det("im0", 0, 0.7, 60, 60, 10, 10),
        ]
        return evaluate(Detections.of(dets), truth, 1)

    def test_table_shows_rounded_ap(self):
        table = format_report_table(self._five_sixths_report())
        assert table.splitlines()[1].split()[:2] == ["class0", "83.3"]
        assert "mAP50 83.3" in table

    def test_csv_layout(self):
        lines = report_csv(self._five_sixths_report()).splitlines()
        assert lines[0] == "class,ap,tp,fp,fn"
        cls, ap, tp, fp, fn = lines[1].split(",")
        assert (cls, tp, fp, fn) == ("0", "2", "1", "0")
        assert float(ap) == pytest.approx(100 * 5 / 6, abs=1e-4)


def _traced_peak(fn, *args):
    """``fn(*args)`` and the bytes its traced allocations (numpy's buffers
    included) peaked at above the level they started from."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


MEMORY_IMAGES, MEMORY_PER_IMAGE = 64, 1024  # 65536 predictions, 16 blocks of lines


@pytest.fixture(scope="module")
def memory_set(tmp_path_factory):
    """A seeded eval set: per image 100 boxes (1 in 6 an ignore region), a
    jittered copy of each and 924 random predictions; the prediction file's
    path and the annotation directory."""
    root = tmp_path_factory.mktemp("memory")
    rng = np.random.default_rng(7)
    lines = []
    for k in range(MEMORY_IMAGES):
        x, y = rng.integers(0, 900, (2, 100))
        w, h = rng.integers(4, 100, (2, 100))
        category = rng.integers(0, 12, 100)
        (root / f"im{k:03d}.txt").write_text("".join(
            f"{a},{b},{c},{d},1,{e},0,0\n" for a, b, c, d, e in zip(x, y, w, h, category)))
        cx, cy = x + w / 2 + rng.normal(0, 2, 100), y + h / 2 + rng.normal(0, 2, 100)
        lines += [f"im{k:03d} {(category[i] + 9) % 10} {rng.uniform():.6f} {cx[i]:.2f} "
                  f"{cy[i]:.2f} {w[i]} {h[i]}\n" for i in range(100)]
        lines += [f"im{k:03d} {rng.integers(10)} {rng.uniform():.6f} {rng.uniform(5, 900):.2f} "
                  f"{rng.uniform(5, 900):.2f} {rng.integers(4, 100)} {rng.integers(4, 100)}\n"
                  for _ in range(MEMORY_PER_IMAGE - 100)]
    pred = root.parent / "memory_predictions.txt"
    pred.write_text("".join(lines))
    return pred, root


def _column_bytes(dets):
    return sum(getattr(dets, f).nbytes for f in ("image", "class_index", "score", "x", "y",
                                                  "w", "h"))


class TestMemory:
    """Eval's transient memory scales with its columns, not with its text."""

    def test_stream_parse_holds_the_columns_and_one_block(self, memory_set):
        # measured: the columns (grown by eighths) plus 2.7 MiB of one block's
        # lines, tokens and columns; the whole text and its lines, read as
        # before the stream reader, peaked 9.9 MiB above the columns
        pred, _ = memory_set
        with open(pred, encoding="utf-8") as fh:
            dets, peak = _traced_peak(parse_predictions, fh)
        columns = _column_bytes(dets)
        assert columns == 56 * MEMORY_IMAGES * MEMORY_PER_IMAGE
        assert peak <= columns * 9 // 8 + (3 << 20)

    def test_evaluate_and_report_hold_a_bounded_amount_per_prediction(self, memory_set,
                                                                       tmp_path):
        # measured on the second run (the first also imports numpy modules,
        # ~1 MiB): 42.3 B per prediction above the parsed columns, under one
        # copy of them (56 B); 64.0 B when match copied the kept rows'
        # columns, and 166.0 B with the match temporaries of all rows and
        # curves as float lists
        pred, gt_dir = memory_set
        with open(pred, encoding="utf-8") as fh:
            dets = parse_predictions(fh)
        truth = load_ground_truth(gt_dir)

        def scored():
            write_report_files(evaluate(dets, truth, 10), tmp_path)

        scored()
        _, peak = _traced_peak(scored)
        assert peak < _column_bytes(dets)
        assert (tmp_path / "pr_class9.csv").read_text().count("\n") > 1000

    def test_match_holds_less_than_one_copy_of_the_columns(self, memory_set):
        # measured on the second run: 42.3 B per prediction; 63.9 B when
        # match returned a copy of the kept rows' columns
        pred, gt_dir = memory_set
        with open(pred, encoding="utf-8") as fh:
            dets = parse_predictions(fh)
        truth = load_ground_truth(gt_dir)
        match(dets, truth)
        (labeled, _), peak = _traced_peak(match, dets, truth)
        assert peak < _column_bytes(dets)
        assert labeled.source is dets
