"""Annotation parsing, matching, AP/mAP, and report emission."""

from collections import Counter

import numpy as np
import pytest

from yolokit.detect import Box, Detection, iou
from yolokit.errors import AnnotationError, ValidationError
from yolokit.evaluation import (
    GroundTruthBox,
    average_precision,
    evaluate,
    format_predictions,
    format_report_table,
    match,
    parse_predictions,
    parse_visdrone,
    precision_recall,
    report_csv,
)
from yolokit.oracles import ap_threshold_enumeration, brute_force_evaluate, match_loop


def det(image_id, cls, score, x, y, w, h):
    return Detection(image_id, cls, score, Box(x, y, w, h))


def gt(image_id, cls, x, y, w, h, ignore=False):
    return GroundTruthBox(image_id, -1 if ignore else cls, Box(x, y, w, h), ignore)


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


class TestPredictionFormat:
    def test_round_trip(self):
        dets = [
            det("im0", 2, 0.75, 10.5, 20.25, 5.0, 8.0),
            det("im1", 0, 1.0, 1.0, 2.0, 3.0, 4.0),
        ]
        assert list(parse_predictions(format_predictions(dets))) == dets

    def test_numpy_scalars_round_trip(self):
        dets = [
            det("im0", np.int64(3), np.float64(0.5), np.float64(565.4404296875),
                np.float32(20.25), np.float64(5.0), np.float32(8.5)),
        ]
        text = format_predictions(dets)
        assert "np." not in text
        assert text == format_predictions([det("im0", 3, 0.5, 565.4404296875, 20.25, 5.0, 8.5)])
        assert list(parse_predictions(text)) == dets

    def test_field_count_error(self):
        with pytest.raises(AnnotationError):
            parse_predictions("im0 1 0.5 10 10 5\n")

    def test_score_range_checked(self):
        with pytest.raises(AnnotationError):
            parse_predictions("im0 1 1.5 10 10 5 5\n")


class TestMatching:
    def test_perfect_match(self):
        truth = [gt("im0", 0, 10, 10, 8, 8)]
        labeled, counts = match([det("im0", 0, 0.9, 10, 10, 8, 8)], truth)
        assert labeled == [(det("im0", 0, 0.9, 10, 10, 8, 8), True)]
        assert counts == {0: 1}

    def test_duplicate_detection_is_fp(self):
        truth = [gt("im0", 0, 10, 10, 8, 8)]
        dets = [
            det("im0", 0, 0.9, 10, 10, 8, 8),
            det("im0", 0, 0.8, 11, 10, 8, 8),
        ]
        labeled, _ = match(dets, truth)
        assert [is_tp for _, is_tp in labeled] == [True, False]

    def test_ignore_region_discards(self):
        truth = [gt("im0", 0, 10, 10, 20, 20, ignore=True)]
        labeled, counts = match([det("im0", 1, 0.9, 10, 10, 20, 20)], truth)
        assert labeled == []
        assert counts == {}

    def test_class_mismatch_is_fp(self):
        truth = [gt("im0", 0, 10, 10, 8, 8)]
        labeled, _ = match([det("im0", 1, 0.9, 10, 10, 8, 8)], truth)
        assert labeled[0][1] is False

    def test_below_threshold_is_fp(self):
        truth = [gt("im0", 0, 10, 10, 8, 8)]
        labeled, _ = match([det("im0", 0, 0.9, 30, 30, 8, 8)], truth)
        assert labeled[0][1] is False

    def test_equal_iou_takes_first_box_in_coordinate_order(self):
        # A overlaps both boxes at IoU 0.6; taking the x=9 box leaves B
        # only the x=11 box, at IoU 1/7
        truth = [gt("im0", 0, 11, 10, 4, 4), gt("im0", 0, 9, 10, 4, 4)]
        a = det("im0", 0, 0.9, 10, 10, 4, 4)
        b = det("im0", 0, 0.8, 8, 10, 4, 4)
        for boxes in (truth, truth[::-1]):
            labeled, _ = match([b, a], boxes)
            assert [(d, t) for d, t in labeled] == [(a, True), (b, False)]

    def test_ignore_flag_not_class_marks_regions(self):
        region = GroundTruthBox("im0", 0, Box(10, 10, 8, 8), ignore=True)
        labeled, counts = match([det("im0", 0, 0.9, 10, 10, 8, 8)], [region])
        assert labeled == [] and counts == {}

    @pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ValidationError):
            match([], [], threshold)

    def test_empty_inputs(self):
        truth = [gt("im0", 0, 10, 10, 8, 8), gt("im0", 1, 10, 10, 8, 8, ignore=True)]
        dets = [det("im0", 0, 0.5, 30, 30, 8, 8), det("im1", 2, 0.5, 30, 30, 8, 8)]
        assert match([], truth) == ([], {0: 1})
        assert match([], []) == ([], {})
        labeled, counts = match(dets, [])
        assert [(id(d), t) for d, t in labeled] == [(id(d), t) for d, t in match_loop(dets, [])]
        assert counts == {}

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

            labeled, counts = match(dets, truth, threshold)
            expected = match_loop(dets, truth, threshold)
            assert [(id(d), t) for d, t in labeled] == [(id(d), t) for d, t in expected]
            assert counts == Counter(g.class_index for g in truth if not g.ignore)

            pairs = [(d, g) for d in dets for g in truth if d.image_id == g.image_id]
            same_class = [(d, g) for d, g in pairs if not g.ignore
                          and g.class_index == d.class_index]
            seen["at threshold"] += any(iou(d.box, g.box) == threshold for d, g in same_class)
            seen["equal IoU"] += any(
                iou(d.box, g.box) == iou(d.box, h.box) >= threshold
                for d, g in same_class for e, h in same_class if e is d and h is not g
            )
            seen["classed region hit"] += any(
                g.ignore and g.class_index != -1 and iou(d.box, g.box) >= threshold
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


class TestPrecisionRecall:
    def test_eight_two_two(self):
        assert precision_recall(8, 2, 2) == (0.8, 0.8)

    def test_zero_denominators(self):
        assert precision_recall(0, 0, 0) == (0.0, 0.0)
        assert precision_recall(0, 0, 5) == (0.0, 0.0)

    def test_perfect_detector(self):
        assert precision_recall(7, 0, 0) == (1.0, 1.0)


class TestAveragePrecision:
    def test_single_tp(self):
        assert average_precision([(0.9, True)], 1) == 1.0

    def test_hand_worked_five_sixths(self):
        scored = [(0.9, True), (0.8, False), (0.7, True)]
        ap = average_precision(scored, 2)
        assert ap == pytest.approx(5 / 6, abs=1e-12)
        assert ap_threshold_enumeration(scored, 2) == pytest.approx(ap, abs=1e-12)

    def test_all_fp(self):
        assert average_precision([(0.9, False), (0.5, False)], 3) == 0.0

    def test_no_ground_truth(self):
        assert average_precision([(0.9, True)], 0) == 0.0

    def test_zero_score_fp_never_raises_ap(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(1, 8))
            scored = sorted(
                ((float(rng.uniform(0.1, 1)), bool(rng.integers(2))) for _ in range(n)),
                reverse=True,
            )
            gt_count = max(1, sum(t for _, t in scored))
            base = average_precision(scored, gt_count)
            worse = average_precision(scored + [(0.0, False)], gt_count)
            assert worse <= base + 1e-15

    def test_score_scaling_invariance(self):
        rng = np.random.default_rng(1)
        scored = sorted(
            ((float(rng.uniform(0.1, 1)), bool(rng.integers(2))) for _ in range(10)),
            reverse=True,
        )
        base = average_precision(scored, 4)
        for factor in (0.5, 0.125, 1.0):
            scaled = [(s * factor, t) for s, t in scored]
            assert average_precision(scaled, 4) == pytest.approx(base, abs=1e-15)

    def test_tied_scores_match_threshold_enumeration(self):
        scored = [(0.5, True), (0.5, False), (0.5, True), (0.2, False)]
        assert average_precision(scored, 2) == pytest.approx(
            ap_threshold_enumeration(scored, 2), abs=1e-15
        )


class TestEvaluate:
    def test_null_detector(self):
        truth = [gt("im0", 0, 10, 10, 8, 8), gt("im0", 1, 30, 30, 8, 8)]
        report = evaluate([], truth, 2)
        assert report.map_percent == 0.0
        assert report.recall == 0.0

    def test_oracle_detector(self):
        truth = [gt(f"im{k}", k % 2, 10 + k, 10, 8, 8) for k in range(6)]
        dets = [Detection(g.image_id, g.class_index, 1.0, g.box) for g in truth]
        report = evaluate(dets, truth, 2)
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
        report = evaluate(dets, truth, 2)
        for result in report.per_class:
            assert result.tp + result.fn == result.gt_count

    def test_classes_absent_from_gt_excluded_from_map(self):
        truth = [gt("im0", 0, 10, 10, 8, 8)]
        dets = [det("im0", 0, 0.9, 10, 10, 8, 8), det("im0", 1, 0.8, 40, 40, 8, 8)]
        report = evaluate(dets, truth, 3)
        assert report.evaluated_classes == [0]
        assert report.map_percent == 100.0

    def test_class_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            evaluate([det("im0", 5, 0.9, 1, 1, 2, 2)], [], 3)

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
            evaluate(dets, truth, num_classes, score_threshold=score_threshold)

    @pytest.mark.parametrize("iou_threshold, score_threshold, map_percent", [
        (0.5, 0.0, 100.0), (0.5, 1.0, 0.0), (1.0, None, 100.0), (1e-9, None, 100.0),
    ])
    def test_option_bounds_accepted(self, iou_threshold, score_threshold, map_percent):
        truth = [gt("im0", 0, 10, 10, 8, 8)]
        dets = [det("im0", 0, 0.9, 10, 10, 8, 8)]
        report = evaluate(dets, truth, 1, iou_threshold=iou_threshold,
                          score_threshold=score_threshold)
        assert report.map_percent == map_percent

    def test_score_threshold_filters(self):
        truth = [gt("im0", 0, 10, 10, 8, 8)]
        dets = [det("im0", 0, 0.2, 10, 10, 8, 8)]
        report = evaluate(dets, truth, 1, score_threshold=0.5)
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
            report = evaluate(dets, truth, num_classes)
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
        baseline = evaluate(dets, truth, 2)
        for _ in range(5):
            d2, t2 = list(dets), list(truth)
            rng.shuffle(d2)
            rng.shuffle(t2)
            again = evaluate(d2, t2, 2)
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
        report = evaluate(dets, truth, 1)
        recalls = report.per_class[0].recalls
        assert recalls == sorted(recalls)


class TestReports:
    def _five_sixths_report(self):
        truth = [gt("im0", 0, 20, 20, 10, 10), gt("im0", 0, 60, 60, 10, 10)]
        dets = [
            det("im0", 0, 0.9, 20, 20, 10, 10),
            det("im0", 0, 0.8, 40, 40, 10, 10),
            det("im0", 0, 0.7, 60, 60, 10, 10),
        ]
        return evaluate(dets, truth, 1)

    def test_table_shows_rounded_ap(self):
        table = format_report_table(self._five_sixths_report(), ["thing"])
        assert "83.3" in table
        assert "mAP50 83.3" in table

    def test_csv_layout(self):
        lines = report_csv(self._five_sixths_report()).splitlines()
        assert lines[0] == "class,ap,tp,fp,fn"
        cls, ap, tp, fp, fn = lines[1].split(",")
        assert (cls, tp, fp, fn) == ("0", "2", "1", "0")
        assert float(ap) == pytest.approx(100 * 5 / 6, abs=1e-4)
