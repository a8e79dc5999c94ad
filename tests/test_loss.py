"""Target assignment, the three-term loss, SGD, and the toy trainer."""

import dataclasses
import inspect
import math
import re
import tracemalloc
import types
import warnings

import numpy as np
import pytest

import yolokit.loss
from yolokit.cfg import TOY_CLASSES, TOY_SIZE, parse_cfg, render_cfg, toy_graph
from yolokit.detect import Box, letterbox, read_head
from yolokit.errors import NumericError, ShapeError, UsageError, ValidationError
from yolokit.evaluation import GroundTruth, GroundTruthBox, parse_visdrone
from yolokit.gradcheck import finite_difference, relative_errors
from yolokit.loss import (
    TOY_IMAGES,
    ToyTrainConfig,
    assign_targets,
    loss_gradients,
    sgd_step,
    synthetic_dataset,
    total_loss,
    train_toy,
)
from yolokit.network import HeadOutput, Network
from yolokit.ppm import read_ppm, write_ppm
from yolokit.weights import random_init
from visdrone_writer import format_visdrone
from box_iou import box_iou

COCO_HEAD_ANCHORS = (
    [(116.0, 90.0), (156.0, 198.0), (373.0, 326.0)],  # stride 32
    [(30.0, 61.0), (62.0, 45.0), (59.0, 119.0)],      # stride 16
    [(10.0, 13.0), (16.0, 30.0), (33.0, 23.0)],       # stride 8
)


def three_heads(input_side=640, num_classes=2, fill=0.0):
    heads = []
    for anchors, stride in zip(COCO_HEAD_ANCHORS, (32, 16, 8)):
        s = input_side // stride
        raw = np.full((3 * (5 + num_classes), s, s), fill, dtype=float)
        heads.append(HeadOutput(stride, raw, anchors, 0.5))
    return heads


def single_head(grid=2, stride=32, num_classes=2, rng=None):
    raw = (rng.normal(0, 1, (3 * (5 + num_classes), grid, grid))
           if rng is not None else np.zeros((3 * (5 + num_classes), grid, grid)))
    return HeadOutput(stride, raw, [(10.0, 13.0), (16.0, 30.0), (33.0, 23.0)], 0.5)


def gt(x, y, w, h, cls=0, ignore=False):
    return GroundTruthBox("img", -1 if ignore else cls, Box(x, y, w, h), ignore)


def rows_of(truth: GroundTruth) -> list[GroundTruthBox]:
    """A ground-truth table's rows as ``GroundTruthBox`` objects, in row order."""
    columns = (truth.image, truth.class_index, truth.ignore, truth.x, truth.y, truth.w, truth.h)
    return [GroundTruthBox(truth.names[image], cls, Box(x, y, w, h), ignore)
            for image, cls, ignore, x, y, w, h in zip(*(c.tolist() for c in columns))]


class TestAssignment:
    def test_empty_ground_truth(self):
        heads = three_heads()
        targets = assign_targets(GroundTruth.of([]), heads)
        for tgt in targets:
            assert not tgt.obj_mask.any()
            assert not tgt.ignore_mask.any()

    def test_center_box_takes_coarse_anchor(self):
        heads = three_heads()
        targets = assign_targets(GroundTruth.of([gt(320, 320, 116, 90)]), heads)
        coarse = targets[0]
        assert coarse.obj_mask[0, 10, 10]
        assert coarse.obj_mask.sum() == 1
        assert not targets[1].obj_mask.any()
        assert not targets[2].obj_mask.any()
        # offsets 0 in cell (10, 10), sizes as input fractions, class 0 of 2
        assert coarse.encoded[0, :, 10, 10].tolist() == [0.0, 0.0, 116 / 640, 90 / 640,
                                                         0.0, 1.0, 0.0]
        assert np.count_nonzero(coarse.encoded) == 3
        assert not targets[1].encoded.any() and not targets[2].encoded.any()

    def test_small_box_takes_fine_anchor(self):
        heads = three_heads()
        targets = assign_targets(GroundTruth.of([gt(100, 100, 11, 14)]), heads)
        assert targets[2].obj_mask.sum() == 1
        assert not targets[0].obj_mask.any()

    def test_two_boxes_two_disjoint_slots(self):
        heads = three_heads()
        targets = assign_targets(
            GroundTruth.of([gt(100, 100, 116, 90), gt(500, 500, 116, 90, cls=1)]), heads
        )
        assert targets[0].obj_mask.sum() == 2

    def test_box_outside_image_rejected(self):
        heads = three_heads()
        with pytest.raises(ValidationError):
            assign_targets(GroundTruth.of([gt(700, 320, 10, 10)]), heads)

    def test_masks_partition_slots(self):
        rng = np.random.default_rng(0)
        head = single_head(grid=4, rng=rng)
        targets = assign_targets(
            GroundTruth.of([gt(40, 40, 16, 30), gt(90, 90, 10, 13, cls=1)]), [head]
        )
        tgt = targets[0]
        # every slot is in exactly one of: object, no-object, ignore
        noobj = ~tgt.obj_mask & ~tgt.ignore_mask
        counts = tgt.obj_mask.astype(int) + tgt.ignore_mask.astype(int) + noobj.astype(int)
        assert np.all(counts == 1)

    def test_ignore_mask_equals_scalar_iou_loop(self):
        rng = np.random.default_rng(4)
        ignored = flagged_only = 0
        for _ in range(20):
            # 8 px cells under 10-33 px anchors: many slots overlap a box
            head = single_head(grid=8, stride=8, rng=rng)
            truth = [
                gt(*rng.uniform(0, 64, 2), *rng.uniform(8, 30, 2), cls=int(rng.integers(2)),
                   ignore=bool(rng.random() < 0.3))
                for _ in range(int(rng.integers(1, 9)))
            ]
            tgt = assign_targets(GroundTruth.of(truth), [head])[0]
            raw = head.raw.reshape(3, 7, 8, 8)
            for a, i, j in np.ndindex(3, 8, 8):
                t = raw[a, :4, i, j]
                pred = Box((1 / (1 + math.exp(-t[0])) + j) * 8, (1 / (1 + math.exp(-t[1])) + i) * 8,
                           head.anchors[a][0] * math.exp(t[2]), head.anchors[a][1] * math.exp(t[3]))
                overlaps = [box_iou(pred, g.box) > 0.5 for g in truth]
                expected = any(overlaps) and not tgt.obj_mask[a, i, j]
                assert tgt.ignore_mask[a, i, j] == expected
                ignored += expected
                flagged_only += expected and all(g.ignore for g, o in zip(truth, overlaps) if o)
        assert ignored >= 20 and flagged_only >= 3, (ignored, flagged_only)

    def test_ignored_ground_truth_is_not_assigned(self):
        heads = three_heads()
        targets = assign_targets(GroundTruth.of([gt(320, 320, 50, 50, ignore=True)]), heads)
        assert not any(t.obj_mask.any() for t in targets)

    @pytest.mark.parametrize("cls", [-1, 2, 5])
    def test_class_outside_the_head_rejected(self, cls):
        # a 2-class head: -1 would index class 1, and 2 and 5 its end
        heads = three_heads(num_classes=2)
        with pytest.raises(ValidationError, match=rf"class {cls} is outside the 2 classes"):
            assign_targets(GroundTruth.of([gt(320, 320, 116, 90, cls=cls)]), heads)
        # the last class assigns, and an ignore box of class -1 is exempt
        targets = assign_targets(GroundTruth.of([gt(320, 320, 116, 90, cls=1),
                                                 gt(100, 100, 50, 50, ignore=True)]), heads)
        assert targets[0].encoded[0, 5:, 10, 10].tolist() == [0.0, 1.0]
        assert targets[0].obj_mask.sum() == 1

    def test_encoded_holds_each_claim_in_the_raw_layout(self):
        # every claimed slot holds a non-ignored box's cell offsets, input
        # fractions and one-hot class; every other value, channel 4 too, is 0
        rng = np.random.default_rng(5)
        claimed = 0
        for _ in range(20):
            heads = three_heads(input_side=128, num_classes=3)
            truth = [gt(*rng.uniform(4, 124, 2), *rng.uniform(6, 90, 2),
                        cls=int(rng.integers(3)), ignore=bool(rng.uniform() < 0.2))
                     for _ in range(int(rng.integers(0, 8)))]
            for head, tgt in zip(heads, assign_targets(GroundTruth.of(truth), heads)):
                assert tgt.encoded.shape == head.layout == (3, 8, *head.grid)
                assert tgt.encoded.dtype == np.float64
                assert not (tgt.encoded * ~tgt.obj_mask[:, None]).any()
                assert not tgt.encoded[:, 4].any()
                for a, i, j in zip(*np.nonzero(tgt.obj_mask)):
                    slot = tgt.encoded[a, :, i, j].tolist()
                    encodings = [[g.box.x / head.stride - j, g.box.y / head.stride - i,
                                  g.box.w / 128, g.box.h / 128, 0.0]
                                 + [float(c == g.class_index) for c in range(3)]
                                 for g in truth if not g.ignore]
                    assert slot in encodings
                    claimed += 1
        assert claimed >= 20, claimed

    def test_ignore_thresh_comes_from_the_cfg(self):
        # one net's weights under three [yolo] ignore_thresh values
        text = render_cfg(toy_graph())
        image = np.random.default_rng(8).uniform(0, 1, (3, 64, 64))
        truth = GroundTruth.of([gt(20, 24, 16, 30), gt(44, 40, 30, 20, cls=1)])
        masks = []
        for thresh in (0.05, 0.5, 0.95):
            net = random_init(parse_cfg(text.replace("ignore_thresh=0.5",
                                                     f"ignore_thresh={thresh}")), seed=8)
            heads = net.forward(image)
            assert heads[0].ignore_thresh == thresh
            masks.append(assign_targets(truth, heads)[0].ignore_mask)
        assert masks[0].sum() > masks[1].sum() > masks[2].sum()


class TestTotalLoss:
    def test_zero_when_predictions_hit_targets(self):
        head = single_head(grid=2)
        box = Box(24.0, 40.0, 16.0, 30.0)
        targets = assign_targets(GroundTruth.of([GroundTruthBox("img", 1, box)]), [head])
        tgt = targets[0]
        (a, i, j) = [t[0] for t in np.nonzero(tgt.obj_mask)]
        raw = head.raw.reshape(3, 7, 2, 2)
        raw[:, 4] = -800.0      # objectness exactly 0 off the responsible slot
        raw[:, 5:] = -800.0
        # saturate the responsible slot to the encoded targets exactly
        t = tgt.encoded[a, :, i, j]
        raw[a, 0, i, j] = np.log(t[0] / (1 - t[0]))
        raw[a, 1, i, j] = np.log(t[1] / (1 - t[1]))
        raw[a, 2, i, j] = np.log(t[2] * 64 / head.anchors[a][0])
        raw[a, 3, i, j] = np.log(t[3] * 64 / head.anchors[a][1])
        raw[a, 4, i, j] = 800.0
        raw[a, 5 + 1, i, j] = 800.0
        breakdown = total_loss([head], targets)
        assert breakdown.total == 0.0
        assert (breakdown.coord, breakdown.iou, breakdown.cls) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("coord", [None, 2.5], ids=["default", "patched"])
    def test_single_coordinate_error_scales_with_lambda(self, coord, monkeypatch):
        if coord is not None:
            monkeypatch.setattr(yolokit.loss, "COORD_WEIGHT", coord)
        head = single_head(grid=2)
        box = Box(24.0, 40.0, 16.0, 30.0)
        targets = assign_targets(GroundTruth.of([GroundTruthBox("img", 1, box)]), [head])
        tgt = targets[0]
        (a, i, j) = [t[0] for t in np.nonzero(tgt.obj_mask)]
        raw = head.raw.reshape(3, 7, 2, 2)
        raw[:, 4] = -800.0
        raw[:, 5:] = -800.0
        t = tgt.encoded[a, :, i, j]
        raw[a, 1, i, j] = np.log(t[1] / (1 - t[1]))
        raw[a, 2, i, j] = np.log(t[2] * 64 / head.anchors[a][0])
        raw[a, 3, i, j] = np.log(t[3] * 64 / head.anchors[a][1])
        raw[a, 4, i, j] = 800.0
        raw[a, 5 + 1, i, j] = 800.0
        # shift the center target one cell unit away from the prediction
        t[0] = float(1.0 / (1.0 + np.exp(-raw[a, 0, i, j]))) + 1.0
        breakdown = total_loss([head], targets)
        assert breakdown.coord == pytest.approx(5.0 if coord is None else coord, abs=1e-9)
        assert breakdown.iou == 0.0 and breakdown.cls == 0.0

    def test_additive_and_nonnegative(self):
        rng = np.random.default_rng(1)
        head = single_head(grid=3, rng=rng)
        truth = GroundTruth.of([gt(40, 40, 16, 30), gt(80, 20, 33, 23, cls=1)])
        targets = assign_targets(truth, [head])
        breakdown = total_loss([head], targets)
        assert breakdown.total == breakdown.coord + breakdown.iou + breakdown.cls
        assert min(breakdown.coord, breakdown.iou, breakdown.cls) >= 0

    def test_non_finite_raw_names_head(self):
        head = single_head(grid=2)
        head.raw[0, 0, 0] = np.nan
        targets = assign_targets(GroundTruth.of([]), [head])
        with pytest.raises(NumericError) as err:
            total_loss([head], targets)
        assert "head 0" in str(err.value)

    @pytest.mark.parametrize("channel", [2, 3])
    def test_extent_overflow_off_the_mask_names_head(self, channel):
        # finite raw values whose extent overflows where no box is: the loss
        # is finite, the gradient would be inf * 0 = nan there
        heads = [single_head(grid=2), single_head(grid=2)]
        targets = assign_targets(GroundTruth.of([gt(20, 20, 10, 13)]), heads)
        assert targets[0].obj_mask.sum() == 1 and not targets[1].obj_mask.any()
        heads[1].raw.reshape(3, 7, 2, 2)[1, channel, 1, 1] = 800.0
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match=r"head 1 \(stride 32\) gives a non-finite"):
                total_loss(heads, targets)


class TestLossInputs:
    @pytest.mark.parametrize("loss_fn", [total_loss, loss_gradients])
    def test_assignment_for_fewer_heads_rejected(self, loss_fn):
        heads = three_heads(input_side=64)
        targets = assign_targets(GroundTruth.of([gt(20, 20, 10, 13)]), heads[:2])
        with pytest.raises(ShapeError, match="targets for 2 heads"):
            loss_fn(heads, targets)

    @pytest.mark.parametrize("loss_fn", [total_loss, loss_gradients])
    def test_target_grid_mismatch_rejected(self, loss_fn):
        targets = assign_targets(GroundTruth.of([gt(20, 20, 10, 13)]), [single_head(grid=2)])
        with pytest.raises(ShapeError, match="obj_mask"):
            loss_fn([single_head(grid=3)], targets)
        head = single_head(grid=2)
        targets[0].ignore_mask = np.zeros((3, 2, 3), dtype=bool)
        with pytest.raises(ShapeError, match="ignore_mask"):
            loss_fn([head], targets)

    @pytest.mark.parametrize("loss_fn", [total_loss, loss_gradients])
    def test_target_class_count_mismatch_rejected(self, loss_fn):
        # the grid fits; the encoded targets hold 2 classes, the head 3
        targets = assign_targets(GroundTruth.of([gt(20, 20, 10, 13, cls=1)]), [single_head(grid=2)])
        with pytest.raises(ShapeError, match=r"^head 0 targets encoded do not fit its "
                                             r"\(3, 8, 2, 2\) layout$"):
            loss_fn([single_head(grid=2, num_classes=3)], targets)


class TestLossGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        head = single_head(grid=2, rng=rng)
        targets = assign_targets(
            GroundTruth.of([gt(20, 24, 18, 22), gt(50, 40, 30, 28, cls=1)]), [head]
        )
        assert targets[0].obj_mask.any()
        assert not targets[0].obj_mask.all()
        analytic = total_loss([head], targets).grads[0]
        fd = finite_difference(lambda: total_loss([head], targets).total, head.raw)
        assert relative_errors(analytic.ravel(), fd.ravel()).max() <= 1e-4

    def test_zero_at_minimum(self):
        head = single_head(grid=2)
        targets = assign_targets(GroundTruth.of([]), [head])
        head.raw.reshape(3, 7, 2, 2)[:, 4] = -800.0
        head.raw.reshape(3, 7, 2, 2)[:, 5:] = -800.0
        grads = total_loss([head], targets).grads[0]
        assert not grads.any()


def _reference_pieces(head):
    # the loss's reading of a head before it became one pass
    pred = read_head(head)
    rows, cols = head.grid
    return pred._replace(w=pred.w / (head.stride * cols), h=pred.h / (head.stride * rows))


def _reference_targets(tgt, num_classes):
    """tx, ty, tw, th and the one-hot class as separate contiguous arrays,
    the class rebuilt from its index on the responsible slots."""
    tx, ty, tw, th = (np.ascontiguousarray(tgt.encoded[:, c]) for c in range(4))
    cls_index = tgt.encoded[:, 5:].argmax(axis=1)
    hot = np.zeros((3, num_classes) + cls_index.shape[1:], dtype=float)
    a, i, j = np.nonzero(tgt.obj_mask)
    hot[a, cls_index[a, i, j], i, j] = 1.0
    return tx, ty, tw, th, hot


def _reference_loss(heads, targets, w):
    """The loss as two separate passes computed it, term by term."""
    coord = iou_term = cls_term = 0.0
    for head, tgt in zip(heads, targets):
        px, py, _, _, pw, ph, pobj, pcls = _reference_pieces(head)
        tx, ty, tw, th, hot = _reference_targets(tgt, head.num_classes)
        obj = tgt.obj_mask
        noobj = ~obj & ~tgt.ignore_mask
        coord += w.coord * float(np.sum(((px - tx) ** 2 + (py - ty) ** 2)[obj]))
        coord += w.coord * float(np.sum(
            ((np.sqrt(pw) - np.sqrt(tw)) ** 2 + (np.sqrt(ph) - np.sqrt(th)) ** 2)[obj]))
        iou_term += w.iou * float(np.sum(((pobj - tgt.obj_mask) ** 2)[obj]))
        iou_term += w.noobj * float(np.sum((pobj ** 2)[noobj]))
        cls_term += w.cls * float(np.sum(((pcls - hot) ** 2) * obj[:, None, :, :]))
    return coord + iou_term + cls_term, coord, iou_term, cls_term


def _reference_gradients(heads, targets, w):
    grads = []
    for head, tgt in zip(heads, targets):
        px, py, _, _, pw, ph, pobj, pcls = _reference_pieces(head)
        tx, ty, tw, th, hot = _reference_targets(tgt, head.num_classes)
        obj = tgt.obj_mask
        noobj = ~obj & ~tgt.ignore_mask
        g = np.zeros((3, 5 + head.num_classes, *head.grid))
        g[:, 0] = w.coord * 2 * (px - tx) * px * (1 - px) * obj
        g[:, 1] = w.coord * 2 * (py - ty) * py * (1 - py) * obj
        g[:, 2] = w.coord * (np.sqrt(pw) - np.sqrt(tw)) * np.sqrt(pw) * obj
        g[:, 3] = w.coord * (np.sqrt(ph) - np.sqrt(th)) * np.sqrt(ph) * obj
        dobj = w.iou * 2 * (pobj - tgt.obj_mask) * obj + w.noobj * 2 * pobj * noobj
        g[:, 4] = dobj * pobj * (1 - pobj)
        g[:, 5:] = w.cls * 2 * (pcls - hot) * pcls * (1 - pcls) * obj[:, None, :, :]
        grads.append(g.reshape(head.raw.shape))
    return grads


class TestOnePass:
    """``total_loss`` computes the terms and the gradient in one pass; every
    bit equals the two passes it replaced."""

    @pytest.mark.parametrize("truth", ["boxes", "empty", "ignore_only"])
    @pytest.mark.parametrize("patched", [None, (2.5, 0.7, 0.3, 1.9)],
                             ids=["default", "distinct"])
    def test_bitwise_equal_to_two_pass_reference(self, truth, patched, monkeypatch):
        # pairwise-distinct weights show a term scaled by another's constant
        if patched is not None:
            for name, value in zip(("COORD_WEIGHT", "IOU_WEIGHT", "NOOBJ_WEIGHT", "CLS_WEIGHT"),
                                   patched):
                monkeypatch.setattr(yolokit.loss, name, value)
        weights = types.SimpleNamespace(coord=yolokit.loss.COORD_WEIGHT,
                                        iou=yolokit.loss.IOU_WEIGHT,
                                        noobj=yolokit.loss.NOOBJ_WEIGHT,
                                        cls=yolokit.loss.CLS_WEIGHT)
        rng = np.random.default_rng(30)
        ignored_slots = 0
        for trial in range(5):
            heads = three_heads(input_side=128, num_classes=3)
            for head in heads:
                head.raw[:] = rng.normal(0, 2, head.raw.shape)
            boxes = {
                "boxes": [gt(*rng.uniform(4, 124, 2), *rng.uniform(6, 90, 2),
                             cls=int(rng.integers(3)), ignore=bool(rng.uniform() < 0.2))
                          for _ in range(int(rng.integers(1, 12)))],
                "empty": [],
                "ignore_only": [gt(*rng.uniform(4, 124, 2), *rng.uniform(6, 90, 2), ignore=True)
                                for _ in range(8)],
            }[truth]
            targets = assign_targets(GroundTruth.of(boxes), heads)
            ignored_slots += sum(int(t.ignore_mask.sum()) for t in targets)
            if truth == "ignore_only":
                assert not any(t.obj_mask.any() for t in targets)
            breakdown = total_loss(heads, targets)
            want = _reference_loss(heads, targets, weights)
            assert (breakdown.total, breakdown.coord, breakdown.iou, breakdown.cls) == want
            want_grads = _reference_gradients(heads, targets, weights)
            assert len(breakdown.grads) == len(want_grads)
            for g, w in zip(breakdown.grads, want_grads):
                assert g.dtype == w.dtype and np.array_equal(g, w), trial
        assert (ignored_slots > 0) == (truth != "empty")

    def test_given_reads_change_nothing(self):
        rng = np.random.default_rng(31)
        heads = three_heads(input_side=64)
        for head in heads:
            head.raw[:] = rng.normal(0, 2, head.raw.shape)
        truth = GroundTruth.of([gt(20, 30, 14, 18), gt(40, 44, 30, 26, cls=1),
                                gt(50, 10, 8, 8, ignore=True)])
        reads = [read_head(head) for head in heads]
        targets = assign_targets(truth, heads, reads=reads)
        fresh = assign_targets(truth, heads)
        for a, b in zip(targets, fresh):
            assert np.array_equal(a.ignore_mask, b.ignore_mask)
        with_reads = total_loss(heads, targets, reads=reads)
        without = total_loss(heads, targets)
        assert with_reads == without
        for a, b in zip(with_reads.grads, without.grads):
            assert np.array_equal(a, b)

    def test_reads_must_match_heads(self):
        heads = three_heads(input_side=64)
        reads = [read_head(head) for head in heads[:2]]
        with pytest.raises(ShapeError, match="2 head reads for 3 heads"):
            assign_targets(GroundTruth.of([gt(20, 20, 10, 13)]), heads, reads=reads)
        targets = assign_targets(GroundTruth.of([gt(20, 20, 10, 13)]), heads)
        with pytest.raises(ShapeError, match="2 head reads for 3 heads"):
            total_loss(heads, targets, reads=reads)


class TestSgd:
    def _one_param_net(self):
        net = random_init(toy_graph(), seed=0)
        return net

    def test_vanilla_step(self):
        net = self._one_param_net()
        _, p = next(iter(net.conv_layers()))
        p.zero_grads()
        p.g_weights[:] = 0.25
        before = p.weights.copy()
        for _, other in net.conv_layers():
            if other is not p:
                other.zero_grads()
        sgd_step(net, {}, lr=1.0, momentum=0.0)
        np.testing.assert_allclose(before - p.weights, 0.25)

    def test_zero_gradients_fixed_point(self):
        net = self._one_param_net()
        net.zero_grads()
        snapshot = [p.weights.copy() for _, p in net.conv_layers()]
        state = {}
        for _ in range(5):
            sgd_step(net, state, lr=0.5, momentum=0.9)
        for (_, p), before in zip(net.conv_layers(), snapshot):
            assert np.array_equal(p.weights, before)

    def test_velocity_approaches_ten_g(self):
        net = self._one_param_net()
        state = {}
        g = 0.01
        for _ in range(200):
            net.zero_grads()
            for _, p in net.conv_layers():
                for _name, _value, grad in p.learnable():
                    grad[:] = g
            sgd_step(net, state, lr=0.0, momentum=0.9)
        for velocity in state.values():
            np.testing.assert_allclose(velocity, 10 * g, rtol=1e-6)

    def test_momentum_step(self):
        # v1 = g, p1 = p0 - lr*g; v2 = m*g + g, p2 = p1 - lr*(1 + m)*g
        net = self._one_param_net()
        before = [p.weights.copy() for _, p in net.conv_layers()]
        state = {}
        for _ in range(2):
            net.zero_grads()
            for _, p in net.conv_layers():
                for _name, _value, grad in p.learnable():
                    grad[:] = 0.25
            sgd_step(net, state, lr=0.5, momentum=0.5)
        for velocity in state.values():
            np.testing.assert_array_equal(velocity, 0.375)
        for (_, p), p0 in zip(net.conv_layers(), before):
            np.testing.assert_allclose(p0 - p.weights, 0.5 * 0.25 + 0.5 * 0.375, rtol=1e-12)

    def test_missing_gradients_rejected(self):
        net = self._one_param_net()
        with pytest.raises(UsageError):
            sgd_step(net, {}, lr=0.1, momentum=0.9)


def _ppm_round_trip_inputs(dataset, dtype, directory):
    """Each frame written with ``write_ppm``, read back with ``read_ppm`` and
    letterboxed at its own side into ``dtype``."""
    inputs = []
    for example in dataset:
        path = directory / f"{example.image_id}.ppm"
        write_ppm(path, example.image)
        inputs.append(letterbox(read_ppm(path), example.image.shape[1], dtype)[0])
    return inputs


def _recording_forward(monkeypatch):
    """The images every ``Network.forward`` call gets, in call order."""
    seen = []
    real = Network.forward

    def recording(self, image, tape=None):
        seen.append(image)
        return real(self, image, tape)

    monkeypatch.setattr(Network, "forward", recording)
    return seen


def _assert_bitwise_inputs(seen, expected):
    # the k-th forward of a run trains on image k mod the set's size
    for k, image in enumerate(seen):
        want = expected[k % len(expected)]
        assert image.dtype == want.dtype and image.shape == want.shape
        assert image.tobytes() == want.tobytes(), k


class TestToyTraining:
    def test_zero_steps_empty_history(self):
        dataset = synthetic_dataset(seed=0)[:4]
        assert train_toy(dataset, toy_graph(), ToyTrainConfig(steps=0)) == []

    @pytest.mark.parametrize("steps, num_images", [(-1, 4), (3, 0), (0, 0)])
    def test_bad_config_or_empty_dataset_rejected(self, steps, num_images):
        # an empty set once divided by zero mid-run
        dataset = synthetic_dataset(seed=0)[:num_images]
        with pytest.raises(ValidationError):
            train_toy(dataset, toy_graph(), ToyTrainConfig(steps=steps))

    def test_settings_are_frozen_once_checked(self):
        config = ToyTrainConfig()
        for name in ("steps", "seed"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(config, name, -1)

    @pytest.mark.parametrize("field", ["steps", "seed"])
    def test_bad_setting_rejected_before_any_work(self, field, monkeypatch):
        # the two settings left are checked when made, before a network is built
        def no_work(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(yolokit.loss, "random_init", no_work)
        dataset = synthetic_dataset(seed=0)[:4]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"^{field} must be >= 0, got -1$"):
                train_toy(dataset, toy_graph(), ToyTrainConfig(**{field: -1}))

    def test_only_steps_and_seed_are_settable(self):
        # the recipe is the module's constants: no field or parameter sets it
        assert [f.name for f in dataclasses.fields(ToyTrainConfig)] == ["steps", "seed"]
        assert list(inspect.signature(total_loss).parameters) == ["heads", "targets", "reads"]
        assert not hasattr(yolokit.loss, "LossWeights")
        assert "LossWeights" not in yolokit.__all__

    def test_recipe_is_the_one_check_8_gates(self):
        # README's battery item 8: YOLOv1's term weights (lambda_coord 5,
        # lambda_noobj 0.5), lr 0.01, momentum 0.9, batch 16, 200 steps
        loss = yolokit.loss
        assert (loss.COORD_WEIGHT, loss.IOU_WEIGHT, loss.NOOBJ_WEIGHT,
                loss.CLS_WEIGHT) == (5.0, 1.0, 0.5, 1.0)
        assert (loss.LEARNING_RATE, loss.MOMENTUM, loss.BATCH_SIZE) == (0.01, 0.9, 16)
        assert ToyTrainConfig() == ToyTrainConfig(steps=200, seed=0)

    @pytest.mark.parametrize("batch", [2, 3])
    def test_a_batch_of_copies_steps_as_one_image(self, batch, monkeypatch):
        # a step averages its images' losses and gradients: a batch of one
        # image's copies trains as a batch of that image alone
        nets = []

        def recording_init(*args, **kwargs):
            nets.append(random_init(*args, **kwargs))
            return nets[-1]

        monkeypatch.setattr(yolokit.loss, "random_init", recording_init)
        dataset = synthetic_dataset(seed=0)[:1]
        histories = []
        for size in (1, batch):
            monkeypatch.setattr(yolokit.loss, "BATCH_SIZE", size)
            histories.append(train_toy(dataset, toy_graph(), ToyTrainConfig(steps=3)))
        np.testing.assert_allclose(histories[1], histories[0], rtol=1e-6, atol=0)
        for (_, one), (_, copies) in zip(nets[0].conv_layers(), nets[1].conv_layers()):
            for (name, want, _), (_, got, _) in zip(one.learnable(), copies.learnable()):
                np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-7, err_msg=name)

    @pytest.mark.parametrize("lr, cause", [
        (10.0, "has non-finite raw values"),        # the forward overflows
        (100.0, "gives a non-finite loss or gradient"),  # an extent overflows
    ])
    def test_divergence_names_step_image_and_head(self, lr, cause, monkeypatch):
        monkeypatch.setattr(yolokit.loss, "LEARNING_RATE", lr)
        monkeypatch.setattr(yolokit.loss, "BATCH_SIZE", 2)
        dataset = synthetic_dataset(seed=0)[:8]
        config = ToyTrainConfig(steps=6, seed=0)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError) as err:
                train_toy(dataset, toy_graph(), config)
        found = re.fullmatch(r"training diverged at step (\d+), image (toy_\d{3}): "
                             r"head 0 \(stride 8\) (.*)", str(err.value))
        assert found, str(err.value)
        step, image_id = int(found[1]), found[2]
        assert 0 < step < config.steps and found[3] == cause
        # the named image is one of that step's batch
        batch = range(step * 2, (step + 1) * 2)
        assert image_id in {dataset[k % len(dataset)].image_id for k in batch}

    @pytest.mark.parametrize("lr, message", [
        (10.0, "step 2, image toy_004: head 0 (stride 8) has non-finite raw values"),
        (100.0, "step 1, image toy_002: head 0 (stride 8) gives a non-finite loss or gradient"),
    ])
    def test_divergence_raises_without_a_numpy_warning(self, lr, message, monkeypatch):
        # an overflowing forward, then an overflowing extent exp in read_head
        monkeypatch.setattr(yolokit.loss, "LEARNING_RATE", lr)
        monkeypatch.setattr(yolokit.loss, "BATCH_SIZE", 2)
        config = ToyTrainConfig(steps=6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError) as err:
                train_toy(synthetic_dataset(seed=0), toy_graph(), config)
        assert str(err.value) == f"training diverged at {message}"

    def test_parameters_gradients_and_velocities_stay_float32(self, monkeypatch):
        # one float64 array anywhere would widen the pass it feeds
        nets, states = [], []

        def recording_init(*args, **kwargs):
            nets.append(random_init(*args, **kwargs))
            return nets[-1]

        def recording_step(network, state, lr, momentum):
            states.append(state)
            settings.append((lr, momentum))
            sgd_step(network, state, lr, momentum)

        settings = []
        monkeypatch.setattr(yolokit.loss, "random_init", recording_init)
        monkeypatch.setattr(yolokit.loss, "sgd_step", recording_step)
        monkeypatch.setattr(yolokit.loss, "BATCH_SIZE", 2)
        dataset = synthetic_dataset(seed=0)[:4]
        train_toy(dataset, toy_graph(), ToyTrainConfig(steps=2))
        (net,) = nets
        assert len(states) == 2 and states[0] is states[1]
        assert settings == [(0.01, 0.9)] * 2
        arrays = {}
        for i, p in net.conv_layers():
            names = ["weights", "g_weights"] + (
                ["bn_gamma", "bn_beta", "bn_mean", "bn_var", "g_gamma", "g_beta"]
                if p.has_batchnorm else ["biases", "g_biases"])
            arrays.update({(i, name): getattr(p, name) for name in names})
        arrays.update({("velocity",) + key: v for key, v in states[0].items()})
        assert len(states[0]) == 14  # weights, gamma, beta of 4 convs; weights, biases of 1
        assert {key: a.dtype for key, a in arrays.items()} == dict.fromkeys(arrays, np.float32)

    def test_history_matches_a_float64_network(self, monkeypatch, tmp_path):
        # the same trainer on a float64 network is the oracle; measured
        # spread over the 20 steps is <= 8e-8 relative. The oracle's
        # forwards get the frames' PPM round trip, letterboxed in float64.
        dataset = synthetic_dataset(seed=0)
        config = ToyTrainConfig(steps=20, seed=0)
        history = train_toy(dataset, toy_graph(), config)
        monkeypatch.setattr(yolokit.loss, "random_init",
                            lambda graph, seed, dtype: random_init(graph, seed, np.float64))
        seen = _recording_forward(monkeypatch)
        oracle = train_toy(dataset, toy_graph(), config)
        assert history != oracle
        np.testing.assert_allclose(history, oracle, rtol=1e-6, atol=0)
        assert len(seen) == config.steps * yolokit.loss.BATCH_SIZE
        _assert_bitwise_inputs(seen, _ppm_round_trip_inputs(dataset, np.float64, tmp_path))

    def test_forward_gets_the_ppm_round_trip_letterboxed(self, monkeypatch, tmp_path):
        # the bits the trainer trains on are the bits detect reads from a
        # PPM file of the frame
        monkeypatch.setattr(yolokit.loss, "BATCH_SIZE", 5)
        dataset = synthetic_dataset(seed=0)[:6]
        seen = _recording_forward(monkeypatch)
        train_toy(dataset, toy_graph(), ToyTrainConfig(steps=2))
        assert len(seen) == 10
        expected = _ppm_round_trip_inputs(dataset, np.float32, tmp_path)
        assert {image.dtype for image in expected} == {np.dtype(np.float32)}
        _assert_bitwise_inputs(seen, expected)

    @pytest.mark.parametrize("frame, message", [
        (lambda image: image / 255.0, "image: expected uint8 samples, got float64"),
        (lambda image: (image / 255.0).astype(np.float32),
         "image: expected uint8 samples, got float32"),
        (lambda image: image[:, :, :48], "image: expected a square frame, got 64x48"),
        (lambda image: image.transpose(1, 2, 0),
         "image: expected a (3, H, W) array, got shape (64, 64, 3)"),
    ], ids=["float64", "float32", "not square", "HWC"])
    def test_frame_not_square_uint8_rejected_before_any_step(self, frame, message,
                                                             monkeypatch):
        def no_forward(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(Network, "forward", no_forward)
        dataset = synthetic_dataset(seed=0)[:4]
        dataset[2].image = frame(dataset[2].image)
        with pytest.raises(ValidationError, match=rf"^toy_002: {re.escape(message)}$"):
            train_toy(dataset, toy_graph(), ToyTrainConfig(steps=1))

    def test_memory_does_not_grow_with_images(self, monkeypatch):
        # one reused tape: a 4-step, 16-image run peaks where one image does
        dataset = synthetic_dataset(seed=0)[:16]
        graph = toy_graph()
        tracing = tracemalloc.is_tracing()
        peaks = []
        try:
            tracemalloc.start()
            for steps, batch_size in ((1, 1), (4, 16)):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                monkeypatch.setattr(yolokit.loss, "BATCH_SIZE", batch_size)
                train_toy(dataset, graph, ToyTrainConfig(steps=steps))
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks

    def test_deterministic_history(self, monkeypatch):
        monkeypatch.setattr(yolokit.loss, "BATCH_SIZE", 4)
        dataset = synthetic_dataset(seed=1)[:8]
        cfg = ToyTrainConfig(steps=3, seed=1)
        a = train_toy(dataset, toy_graph(), cfg)
        b = train_toy(dataset, toy_graph(), cfg)
        assert a == b

    def test_each_head_read_once_per_image(self, monkeypatch):
        calls = []
        real = yolokit.loss.read_head

        def counting(head):
            calls.append(head.raw.shape)
            return real(head)

        monkeypatch.setattr(yolokit.loss, "read_head", counting)
        dataset = synthetic_dataset(seed=4)[:4]
        assert all(len(example.boxes.x) for example in dataset)  # the assignment reads too
        monkeypatch.setattr(yolokit.loss, "BATCH_SIZE", 3)
        train_toy(dataset, toy_graph(), ToyTrainConfig(steps=2, seed=4))
        assert len(calls) == 6

    def test_loss_decreases_quickly(self, monkeypatch):
        monkeypatch.setattr(yolokit.loss, "BATCH_SIZE", 8)
        dataset = synthetic_dataset(seed=2)[:16]
        history = train_toy(dataset, toy_graph(), ToyTrainConfig(steps=15, seed=2))
        assert history[-1] < history[0]

    def test_one_color_per_class_above_the_noise(self):
        # every color is some class's, and each is brighter than the noise
        # (at most 0.3 of full scale) in at least one channel
        colors = yolokit.loss._TOY_COLORS
        assert len(colors) == len(set(colors)) == TOY_CLASSES
        assert all(max(color) > round(0.3 * 255) for color in colors)

    def test_a_seed_draws_one_set(self):
        # the same seed gives the same frames and boxes; another seed, such
        # as a held-out set's, gives other frames
        def drawn(seed):
            return [(e.image_id, e.image.tobytes(),
                     [(g.class_index, g.box) for g in rows_of(e.boxes)])
                    for e in synthetic_dataset(seed=seed)]

        assert drawn(0) == drawn(0)
        assert all(a[1] != b[1] for a, b in zip(drawn(0), drawn(1000)))

    def test_only_the_seed_sets_the_toy_set(self):
        # the set's count, frame size and classes are the constants the
        # graph is built from: no parameter restates or changes them
        assert list(inspect.signature(synthetic_dataset).parameters) == ["seed"]
        assert list(inspect.signature(toy_graph).parameters) == []
        graph = toy_graph()
        assert (graph.input_channels, graph.input_height, graph.input_width) == (
            3, TOY_SIZE, TOY_SIZE)
        (head,) = [layer for layer in graph.layers if layer.kind == "yolo"]
        assert head.attrs["classes"] == TOY_CLASSES
        for seed in range(4):
            dataset = synthetic_dataset(seed=seed)
            assert len(dataset) == TOY_IMAGES
            assert {example.image.shape for example in dataset} == {(3, TOY_SIZE, TOY_SIZE)}
            assert all(0 <= g.class_index < head.attrs["classes"]
                       for example in dataset for g in rows_of(example.boxes))

    def test_bad_seed_rejected_before_any_draw(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drawing started")

        monkeypatch.setattr(yolokit.loss.np.random, "default_rng", no_draw)
        with pytest.raises(ValidationError, match=r"^seed must be >= 0, got -1$"):
            synthetic_dataset(seed=-1)

    def test_dataset_labels_are_exact_and_dumpable(self):
        classes = set()
        for example in synthetic_dataset(seed=3):
            assert example.image.shape == (3, 64, 64)
            assert example.image.dtype == np.uint8 and example.image.flags.c_contiguous
            for box in rows_of(example.boxes):
                # the labeled rectangle is exactly the painted color patch,
                # at least a pixel from the border
                x0 = int(box.box.x - box.box.w / 2)
                y0 = int(box.box.y - box.box.h / 2)
                w, h = int(box.box.w), int(box.box.h)
                assert x0 >= 1 and y0 >= 1 and x0 + w <= 63 and y0 + h <= 63
                patch = example.image[:, y0 : y0 + h, x0 : x0 + w]
                assert np.ptp(patch, axis=(1, 2)).max() == 0
                classes.add(box.class_index)
            reparsed = parse_visdrone(format_visdrone(rows_of(example.boxes)), example.image_id)
            assert reparsed == rows_of(example.boxes)
        assert classes == {0, 1}  # every class is drawn
