"""Letterboxing, box decoding, IoU, and non-maximum suppression."""

import math

import numpy as np
import pytest

from yolokit.cfg import toy_graph
from yolokit.detect import (
    PAD_VALUE,
    Box,
    Detection,
    Detections,
    IDENTITY_TRANSFORM,
    LetterboxTransform,
    corner_table,
    decode,
    iou_grid,
    letterbox,
    nms,
)
from yolokit.errors import ShapeError, UsageError, ValidationError
from yolokit.network import HeadOutput
from yolokit.oracles import iou_grid_count, nms_loop
from yolokit.weights import random_init
from box_iou import box_iou


def head_with_raw(raw, stride=32, anchors=None):
    anchors = anchors or [(116.0, 90.0), (156.0, 198.0), (373.0, 326.0)]
    return HeadOutput(stride, raw, anchors, 0.5)


def float_letterbox(image8, target, dtype):
    """The float64 route: parse scaled each sample to v / 255, letterbox
    resized and padded in float64, and detect cast the canvas to dtype."""
    image = image8.astype(np.float64) / 255.0
    c, h, w = image.shape
    scale = target / max(h, w)
    new_h = max(1, round(h * scale))
    new_w = max(1, round(w * scale))
    rows = np.clip(((np.arange(new_h) + 0.5) / scale).astype(int), 0, h - 1)
    cols = np.clip(((np.arange(new_w) + 0.5) / scale).astype(int), 0, w - 1)
    resized = image[:, rows[:, None], cols[None, :]]
    pad_y = (target - new_h) // 2
    pad_x = (target - new_w) // 2
    canvas = np.full((c, target, target), 0.5, dtype=np.float64)
    canvas[:, pad_y : pad_y + new_h, pad_x : pad_x + new_w] = resized
    return canvas.astype(dtype)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestLetterbox:
    def test_square_identity(self):
        image = np.random.default_rng(0).integers(0, 256, (3, 64, 64), dtype=np.uint8)
        out, transform = letterbox(image, 64, np.float64)
        assert transform == LetterboxTransform(1.0, 0.0, 0.0)
        assert np.array_equal(out, image / 255.0)

    def test_wide_image_pads_x(self):
        image = np.random.default_rng(1).integers(0, 256, (3, 320, 640), dtype=np.uint8)
        out, transform = letterbox(image, 640, np.float32)
        assert transform.scale == 1.0
        assert (transform.pad_x, transform.pad_y) == (0.0, 160.0)
        assert out.shape == (3, 640, 640) and out.dtype == np.float32
        assert np.all(out[:, :160, :] == 0.5)
        assert np.all(out[:, 480:, :] == 0.5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_level_maps_to_its_float64_quotient(self, dtype):
        # one row holding all 256 levels in each channel, at scale 1
        image = np.stack([np.roll(np.arange(256, dtype=np.uint8), 85 * c) for c in range(3)])
        out, transform = letterbox(image[:, None, :], 256, dtype)
        assert transform == LetterboxTransform(1.0, 0.0, 127.0)
        want = (image.astype(np.float64) / 255.0).astype(dtype)
        assert same_bits(out[:, 127, :], want)
        assert same_bits(out, float_letterbox(image[:, None, :], 256, dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,target,pad_rows,pad_cols", [
        ((3, 90, 160), 64, 28, 0),     # landscape, shrunk: 36x64 resized
        ((3, 150, 70), 96, 0, 51),     # portrait, shrunk: 96x45
        ((3, 37, 37), 64, 0, 0),       # square, enlarged
        ((3, 21, 50), 128, 74, 0),     # landscape, enlarged: 54x128
        ((3, 1, 1), 32, 0, 0),         # one pixel fills the canvas
    ])
    def test_equals_the_float64_route_bit_for_bit(self, shape, target, pad_rows, pad_cols,
                                                  dtype):
        image = np.random.default_rng(sum(shape) + target).integers(0, 256, shape, dtype=np.uint8)
        out, _ = letterbox(image, target, dtype)
        assert same_bits(out, float_letterbox(image, target, dtype))
        # no level v / 255 is 0.5, so the pad cells are exactly the 0.5 cells
        resized = (target - pad_rows) * (target - pad_cols)
        assert np.count_nonzero(out == PAD_VALUE) == 3 * (target * target - resized)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float16, np.complex128])
    def test_dtype_must_be_float32_or_float64(self, dtype):
        with pytest.raises(UsageError, match="float32 or float64"):
            letterbox(np.zeros((3, 8, 8), dtype=np.uint8), 8, dtype)

    def test_target_must_be_divisible(self):
        # letterbox itself takes any positive size; the network rejects it
        # by the rule of its own head (stride 8 does not divide 100)
        canvas, _ = letterbox(np.zeros((3, 64, 64), dtype=np.uint8), 100, np.float64)
        net = random_init(toy_graph(), seed=0)
        with pytest.raises(ShapeError, match="not an integer stride of 100x100"):
            net.forward(canvas)

    @pytest.mark.parametrize("target", [0, -32])
    def test_target_must_be_positive(self, target):
        with pytest.raises(UsageError):
            letterbox(np.zeros((3, 64, 64), dtype=np.uint8), target, np.float64)

    def test_box_round_trip_within_pixel(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            h = int(rng.integers(40, 700))
            w = int(rng.integers(40, 700))
            _, transform = letterbox(np.zeros((3, h, w), dtype=np.uint8), 320, np.float64)
            box = Box(
                float(rng.uniform(5, w - 5)),
                float(rng.uniform(5, h - 5)),
                float(rng.uniform(2, 30)),
                float(rng.uniform(2, 30)),
            )
            # the forward map, original frame to network input, written out
            fx = box.x * transform.scale + transform.pad_x
            fy = box.y * transform.scale + transform.pad_y
            fw, fh = box.w * transform.scale, box.h * transform.scale
            bx, by, bw, bh = transform.original_xywh(fx, fy, fw, fh)
            assert abs(bx - box.x) <= 1 and abs(by - box.y) <= 1
            assert abs(bw - box.w) <= 1 and abs(bh - box.h) <= 1


class TestDecode:
    def test_zero_logit_score_product(self):
        raw = np.full((21, 1, 1), -800.0)
        raw[4, 0, 0] = 0.0                      # objectness 0.5
        raw[5, 0, 0] = math.log(0.8 / 0.2)      # class prob 0.8
        head = head_with_raw(raw)
        dets = decode(head, 0.0, IDENTITY_TRANSFORM, "img")
        best = max(dets, key=lambda d: d.score)
        assert best.class_index == 0
        assert abs(best.score - 0.4) < 1e-12

    def test_hand_decoded_box(self):
        raw = np.full((21, 1, 1), -800.0)
        raw[0:5, 0, 0] = [0.0, 0.0, 0.0, 0.0, 800.0]
        raw[5, 0, 0] = 800.0
        head = head_with_raw(raw)
        [det] = decode(head, 0.5, IDENTITY_TRANSFORM, "img")
        assert (det.box.x, det.box.y) == (16.0, 16.0)
        assert (det.box.w, det.box.h) == (116.0, 90.0)
        assert det.score == 1.0

    def test_high_threshold_empty(self):
        raw = np.zeros((21, 2, 2))
        dets = decode(head_with_raw(raw), 0.999, IDENTITY_TRANSFORM, "img")
        assert list(dets) == []

    def test_threshold_range_validated(self):
        raw = np.zeros((21, 1, 1))
        with pytest.raises(ValidationError):
            decode(head_with_raw(raw), 1.0, IDENTITY_TRANSFORM, "img")

    def test_centers_stay_in_cell(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(0, 2, (21, 3, 3))
        for det in decode(head_with_raw(raw), 0.0, IDENTITY_TRANSFORM, "img"):
            col = int(det.box.x // 32)
            row = int(det.box.y // 32)
            assert 0 <= col < 3 and 0 <= row < 3

    def test_score_factorization(self):
        rng = np.random.default_rng(4)
        raw = rng.normal(0, 1, (21, 2, 2))
        head = head_with_raw(raw)
        shaped = raw.reshape(3, 7, 2, 2)
        for index, det in enumerate(decode(head, 0.0, IDENTITY_TRANSFORM, "img")):
            a, rest = divmod(index, 4)
            i, j = divmod(rest, 2)
            obj = 1 / (1 + math.exp(-shaped[a, 4, i, j]))
            prob = 1 / (1 + math.exp(-shaped[a, 5 + det.class_index, i, j]))
            assert det.score == pytest.approx(obj * prob, abs=1e-15)

    def test_transform_applied(self):
        raw = np.full((21, 1, 1), -800.0)
        raw[0:5, 0, 0] = [0.0, 0.0, 0.0, 0.0, 800.0]
        raw[5, 0, 0] = 800.0
        transform = LetterboxTransform(scale=0.5, pad_x=10.0, pad_y=0.0)
        [det] = decode(head_with_raw(raw), 0.5, transform, "img")
        assert det.box.x == (16.0 - 10.0) / 0.5
        assert det.box.w == 116.0 / 0.5


class TestIou:
    def test_identity(self):
        b = Box(10, 10, 4, 6)
        assert box_iou(b, b) == 1.0

    def test_disjoint(self):
        assert box_iou(Box(0, 0, 2, 2), Box(10, 10, 2, 2)) == 0.0

    def test_one_third_case(self):
        # corner rectangles (0,0)-(2,2) and (1,0)-(3,2)
        a = Box(1, 1, 2, 2)
        b = Box(2, 1, 2, 2)
        assert box_iou(a, b) == pytest.approx(1 / 3, abs=1e-15)
        assert iou_grid_count(a, b) == pytest.approx(1 / 3, abs=2e-2)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        boxes = []
        for _ in range(50):
            a = Box(*rng.uniform(0, 50, 2), *rng.uniform(1, 20, 2))
            b = Box(*rng.uniform(0, 50, 2), *rng.uniform(1, 20, 2))
            assert box_iou(a, b) == box_iou(b, a)
            assert 0.0 <= box_iou(a, b) <= 1.0
            boxes += [a, b]
        # identical, edge-touching, corner-touching and disjoint boxes
        boxes += [Box(10, 10, 4, 6), Box(10, 10, 4, 6), Box(14, 10, 4, 6),
                  Box(14, 16, 4, 6), Box(90, 90, 2, 2)]
        # the array kernel, every entry in both argument orders, bit for bit
        table = corner_table(*np.array([(b.x, b.y, b.w, b.h) for b in boxes]).T)
        grid = iou_grid(table[:, :, None], table)
        want = np.array([[box_iou(a, b) for b in boxes] for a in boxes])
        assert np.array_equal(grid.view(np.int64), want.view(np.int64))
        for k in range(len(boxes)):  # the table against one box: column k
            assert np.array_equal(iou_grid(table, table[:, k]).view(np.int64),
                                  want[:, k].view(np.int64))
        assert want[-5, -4] == 1.0 and want[-5, -3] == want[-5, -2] == want[-5, -1] == 0.0

    def test_grid_oracle_agreement(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = Box(*rng.uniform(10, 40, 2), *rng.uniform(5, 25, 2))
            b = Box(*rng.uniform(10, 40, 2), *rng.uniform(5, 25, 2))
            assert box_iou(a, b) == pytest.approx(iou_grid_count(a, b), abs=2e-2)

    def test_degenerate_box_rejected(self):
        with pytest.raises(ShapeError):
            Box(0, 0, 0, 5)


def kept(detections, iou_threshold):
    """The rows :func:`nms` keeps of a list of ``Detection``, as ``Detection``
    objects in output order."""
    survivors = nms(Detections.of(detections), iou_threshold)
    assert isinstance(survivors, Detections)
    return list(survivors)


class TestNms:
    def test_singleton(self):
        det = Detection("img", 0, 0.5, Box(10, 10, 5, 5))
        assert kept([det], 0.45) == [det]

    def test_overlapping_pair_suppressed(self):
        # same-size boxes offset to overlap at IoU 0.6 exactly
        a = Detection("img", 0, 0.9, Box(10.0, 10.0, 10.0, 10.0))
        b = Detection("img", 0, 0.8, Box(12.5, 10.0, 10.0, 10.0))
        assert box_iou(a.box, b.box) == pytest.approx(0.6)
        assert kept([a, b], 0.45) == [a]
        assert kept([b, a], 0.45) == [a]

    def test_classwise_suppression(self):
        a = Detection("img", 0, 0.9, Box(10, 10, 10, 10))
        b = Detection("img", 1, 0.8, Box(10, 10, 10, 10))
        assert set(kept([a, b], 0.45)) == {a, b}

    def test_threshold_validated(self):
        with pytest.raises(ValidationError):
            nms(Detections.of([]), 0.0)

    def test_survivor_pairs_below_threshold(self):
        rng = np.random.default_rng(7)
        dets = [
            Detection(
                "img",
                int(rng.integers(2)),
                float(score),
                Box(*rng.uniform(10, 60, 2), *rng.uniform(8, 30, 2)),
            )
            for score in np.linspace(0.95, 0.05, 40)
        ]
        survivors = kept(dets, 0.45)
        for k, a in enumerate(survivors):
            for b in survivors[k + 1 :]:
                if a.class_index == b.class_index:
                    assert box_iou(a.box, b.box) <= 0.45

    def test_equal_scores_keep_input_order(self):
        a = Detection("img", 0, 0.8, Box(10.0, 10.0, 10.0, 10.0))
        b = Detection("img", 0, 0.8, Box(11.0, 10.0, 10.0, 10.0))
        assert kept([a, b], 0.45) == [a]
        assert kept([b, a], 0.45) == [b]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        dets = [
            Detection(
                "img",
                int(rng.integers(3)),
                float(score),
                Box(*rng.uniform(10, 60, 2), *rng.uniform(8, 30, 2)),
            )
            for score in rng.permutation(np.linspace(0.9, 0.1, 30))
        ]
        baseline = set(kept(dets, 0.45))
        for _ in range(5):
            shuffled = list(dets)
            rng.shuffle(shuffled)
            assert set(kept(shuffled, 0.45)) == baseline

    def test_matches_oracle_loop(self):
        # integer boxes and one-decimal scores make score ties and IoU exactly
        # at the threshold (inter 1, union 3 at 1/3; inter 1, union 2 at 1/2)
        rng = np.random.default_rng(9)
        at_threshold = 0
        for trial in range(200):
            threshold = (1 / 3, 0.5, 0.45)[trial % 3]
            dets = [
                Detection(
                    "img",
                    int(rng.integers(1 + trial % 3)),
                    round(float(rng.uniform(0.05, 1.0)), 1),
                    Box(*rng.integers(0, 8, 2).tolist(), *rng.integers(1, 5, 2).tolist()),
                )
                for _ in range(int(rng.integers(0, 40)))
            ]
            at_threshold += any(
                a.class_index == b.class_index and box_iou(a.box, b.box) == threshold
                for a in dets for b in dets if a is not b
            )
            # row for row, in order
            assert kept(dets, threshold) == nms_loop(dets, threshold)
        assert at_threshold >= 20
        assert kept([], 1 / 3) == nms_loop([], 1 / 3) == []
