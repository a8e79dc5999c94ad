"""Target assignment, the three-term loss, SGD, and the toy trainer."""

import math

import numpy as np
import pytest

from yolokit.cfg import parse_cfg, render_cfg
from yolokit.detect import Box, iou, read_head
from yolokit.errors import NumericError, ShapeError, UsageError, ValidationError
from yolokit.evaluation import GroundTruthBox, format_visdrone, parse_visdrone
from yolokit.gradcheck import finite_difference, relative_errors
from yolokit.loss import (
    LossWeights,
    ToyTrainConfig,
    assign_targets,
    loss_gradients,
    sgd_step,
    synthetic_dataset,
    total_loss,
    toy_graph,
    train_toy,
)
from yolokit.network import HeadOutput
from yolokit.weights import random_init

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


class TestAssignment:
    def test_empty_ground_truth(self):
        heads = three_heads()
        targets = assign_targets([], heads)
        for tgt in targets:
            assert not tgt.obj_mask.any()
            assert not tgt.ignore_mask.any()

    def test_center_box_takes_coarse_anchor(self):
        heads = three_heads()
        targets = assign_targets([gt(320, 320, 116, 90)], heads)
        coarse = targets[0]
        assert coarse.obj_mask[0, 10, 10]
        assert coarse.obj_mask.sum() == 1
        assert not targets[1].obj_mask.any()
        assert not targets[2].obj_mask.any()
        assert coarse.cls_index[0, 10, 10] == 0
        assert coarse.tw[0, 10, 10] == pytest.approx(116 / 640)

    def test_small_box_takes_fine_anchor(self):
        heads = three_heads()
        targets = assign_targets([gt(100, 100, 11, 14)], heads)
        assert targets[2].obj_mask.sum() == 1
        assert not targets[0].obj_mask.any()

    def test_two_boxes_two_disjoint_slots(self):
        heads = three_heads()
        targets = assign_targets(
            [gt(100, 100, 116, 90), gt(500, 500, 116, 90, cls=1)], heads
        )
        assert targets[0].obj_mask.sum() == 2

    def test_box_outside_image_rejected(self):
        heads = three_heads()
        with pytest.raises(ValidationError):
            assign_targets([gt(700, 320, 10, 10)], heads)

    def test_masks_partition_slots(self):
        rng = np.random.default_rng(0)
        head = single_head(grid=4, rng=rng)
        targets = assign_targets(
            [gt(40, 40, 16, 30), gt(90, 90, 10, 13, cls=1)], [head]
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
            tgt = assign_targets(truth, [head])[0]
            raw = head.raw.reshape(3, 7, 8, 8)
            for a, i, j in np.ndindex(3, 8, 8):
                t = raw[a, :4, i, j]
                pred = Box((1 / (1 + math.exp(-t[0])) + j) * 8, (1 / (1 + math.exp(-t[1])) + i) * 8,
                           head.anchors[a][0] * math.exp(t[2]), head.anchors[a][1] * math.exp(t[3]))
                overlaps = [iou(pred, g.box) > 0.5 for g in truth]
                expected = any(overlaps) and not tgt.obj_mask[a, i, j]
                assert tgt.ignore_mask[a, i, j] == expected
                ignored += expected
                flagged_only += expected and all(g.ignore for g, o in zip(truth, overlaps) if o)
        assert ignored >= 20 and flagged_only >= 3, (ignored, flagged_only)

    def test_ignored_ground_truth_is_not_assigned(self):
        heads = three_heads()
        targets = assign_targets([gt(320, 320, 50, 50, ignore=True)], heads)
        assert not any(t.obj_mask.any() for t in targets)

    def test_ignore_thresh_comes_from_the_cfg(self):
        # one net's weights under three [yolo] ignore_thresh values
        text = render_cfg(toy_graph(2, 64))
        image = np.random.default_rng(8).uniform(0, 1, (3, 64, 64))
        truth = [gt(20, 24, 16, 30), gt(44, 40, 30, 20, cls=1)]
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
        targets = assign_targets([GroundTruthBox("img", 1, box)], [head])
        tgt = targets[0]
        (a, i, j) = [t[0] for t in np.nonzero(tgt.obj_mask)]
        raw = head.raw.reshape(3, 7, 2, 2)
        raw[:, 4] = -800.0      # objectness exactly 0 off the responsible slot
        raw[:, 5:] = -800.0
        # saturate the responsible slot to the encoded targets exactly
        raw[a, 0, i, j] = np.log(tgt.tx[a, i, j] / (1 - tgt.tx[a, i, j]))
        raw[a, 1, i, j] = np.log(tgt.ty[a, i, j] / (1 - tgt.ty[a, i, j]))
        raw[a, 2, i, j] = np.log(tgt.tw[a, i, j] * 64 / head.anchors[a][0])
        raw[a, 3, i, j] = np.log(tgt.th[a, i, j] * 64 / head.anchors[a][1])
        raw[a, 4, i, j] = 800.0
        raw[a, 5 + 1, i, j] = 800.0
        breakdown = total_loss([head], targets)
        assert breakdown.total == 0.0
        assert (breakdown.coord, breakdown.iou, breakdown.cls) == (0.0, 0.0, 0.0)

    def test_single_coordinate_error_scales_with_lambda(self):
        head = single_head(grid=2)
        box = Box(24.0, 40.0, 16.0, 30.0)
        targets = assign_targets([GroundTruthBox("img", 1, box)], [head])
        tgt = targets[0]
        (a, i, j) = [t[0] for t in np.nonzero(tgt.obj_mask)]
        raw = head.raw.reshape(3, 7, 2, 2)
        raw[:, 4] = -800.0
        raw[:, 5:] = -800.0
        raw[a, 1, i, j] = np.log(tgt.ty[a, i, j] / (1 - tgt.ty[a, i, j]))
        raw[a, 2, i, j] = np.log(tgt.tw[a, i, j] * 64 / head.anchors[a][0])
        raw[a, 3, i, j] = np.log(tgt.th[a, i, j] * 64 / head.anchors[a][1])
        raw[a, 4, i, j] = 800.0
        raw[a, 5 + 1, i, j] = 800.0
        # shift the center target one cell unit away from the prediction
        tgt.tx[a, i, j] = float(1.0 / (1.0 + np.exp(-raw[a, 0, i, j]))) + 1.0
        breakdown = total_loss([head], targets, LossWeights(coord=5.0))
        assert breakdown.coord == pytest.approx(5.0, abs=1e-9)
        assert breakdown.iou == 0.0 and breakdown.cls == 0.0

    def test_additive_and_nonnegative(self):
        rng = np.random.default_rng(1)
        head = single_head(grid=3, rng=rng)
        targets = assign_targets([gt(40, 40, 16, 30), gt(80, 20, 33, 23, cls=1)], [head])
        breakdown = total_loss([head], targets)
        assert breakdown.total == breakdown.coord + breakdown.iou + breakdown.cls
        assert min(breakdown.coord, breakdown.iou, breakdown.cls) >= 0

    def test_non_finite_raw_names_head(self):
        head = single_head(grid=2)
        head.raw[0, 0, 0] = np.nan
        targets = assign_targets([], [head])
        with pytest.raises(NumericError) as err:
            total_loss([head], targets)
        assert "head 0" in str(err.value)

    def test_negative_weights_rejected(self):
        head = single_head(grid=2)
        targets = assign_targets([], [head])
        with pytest.raises(ValidationError):
            total_loss([head], targets, LossWeights(coord=-1.0))


class TestLossInputs:
    @pytest.mark.parametrize("loss_fn", [total_loss, loss_gradients])
    def test_assignment_for_fewer_heads_rejected(self, loss_fn):
        heads = three_heads(input_side=64)
        targets = assign_targets([gt(20, 20, 10, 13)], heads[:2])
        with pytest.raises(ShapeError, match="targets for 2 heads"):
            loss_fn(heads, targets)

    @pytest.mark.parametrize("loss_fn", [total_loss, loss_gradients])
    def test_target_grid_mismatch_rejected(self, loss_fn):
        targets = assign_targets([gt(20, 20, 10, 13)], [single_head(grid=2)])
        with pytest.raises(ShapeError, match="obj_mask"):
            loss_fn([single_head(grid=3)], targets)
        head = single_head(grid=2)
        targets[0].ignore_mask = np.zeros((3, 2, 3), dtype=bool)
        with pytest.raises(ShapeError, match="ignore_mask"):
            loss_fn([head], targets)


class TestLossGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        head = single_head(grid=2, rng=rng)
        targets = assign_targets(
            [gt(20, 24, 18, 22), gt(50, 40, 30, 28, cls=1)], [head]
        )
        assert targets[0].obj_mask.any()
        assert not targets[0].obj_mask.all()
        analytic = total_loss([head], targets).grads[0]
        fd = finite_difference(lambda: total_loss([head], targets).total, head.raw)
        assert relative_errors(analytic.ravel(), fd.ravel()).max() <= 1e-4

    def test_zero_at_minimum(self):
        head = single_head(grid=2)
        targets = assign_targets([], [head])
        head.raw.reshape(3, 7, 2, 2)[:, 4] = -800.0
        head.raw.reshape(3, 7, 2, 2)[:, 5:] = -800.0
        grads = total_loss([head], targets).grads[0]
        assert not grads.any()


def _reference_pieces(head):
    # the loss's reading of a head before it became one pass
    pred = read_head(head)
    rows, cols = head.grid
    return pred._replace(w=pred.w / (head.stride * cols), h=pred.h / (head.stride * rows))


def _reference_one_hot(tgt, num_classes):
    hot = np.zeros((3, num_classes) + tgt.cls_index.shape[1:], dtype=float)
    a, i, j = np.nonzero(tgt.obj_mask)
    hot[a, tgt.cls_index[a, i, j], i, j] = 1.0
    return hot


def _reference_loss(heads, targets, w):
    """The loss as two separate passes computed it, term by term."""
    coord = iou_term = cls_term = 0.0
    for head, tgt in zip(heads, targets):
        px, py, _, _, pw, ph, pobj, pcls = _reference_pieces(head)
        obj = tgt.obj_mask
        noobj = ~obj & ~tgt.ignore_mask
        coord += w.coord * float(np.sum(((px - tgt.tx) ** 2 + (py - tgt.ty) ** 2)[obj]))
        coord += w.coord * float(np.sum(
            ((np.sqrt(pw) - np.sqrt(tgt.tw)) ** 2 + (np.sqrt(ph) - np.sqrt(tgt.th)) ** 2)[obj]))
        iou_term += w.iou * float(np.sum(((pobj - tgt.obj_mask) ** 2)[obj]))
        iou_term += w.noobj * float(np.sum((pobj ** 2)[noobj]))
        hot = _reference_one_hot(tgt, head.num_classes)
        cls_term += w.cls * float(np.sum(((pcls - hot) ** 2) * obj[:, None, :, :]))
    return coord + iou_term + cls_term, coord, iou_term, cls_term


def _reference_gradients(heads, targets, w):
    grads = []
    for head, tgt in zip(heads, targets):
        px, py, _, _, pw, ph, pobj, pcls = _reference_pieces(head)
        obj = tgt.obj_mask
        noobj = ~obj & ~tgt.ignore_mask
        g = np.zeros((3, 5 + head.num_classes, *head.grid))
        g[:, 0] = w.coord * 2 * (px - tgt.tx) * px * (1 - px) * obj
        g[:, 1] = w.coord * 2 * (py - tgt.ty) * py * (1 - py) * obj
        g[:, 2] = w.coord * (np.sqrt(pw) - np.sqrt(tgt.tw)) * np.sqrt(pw) * obj
        g[:, 3] = w.coord * (np.sqrt(ph) - np.sqrt(tgt.th)) * np.sqrt(ph) * obj
        dobj = w.iou * 2 * (pobj - tgt.obj_mask) * obj + w.noobj * 2 * pobj * noobj
        g[:, 4] = dobj * pobj * (1 - pobj)
        hot = _reference_one_hot(tgt, head.num_classes)
        g[:, 5:] = w.cls * 2 * (pcls - hot) * pcls * (1 - pcls) * obj[:, None, :, :]
        grads.append(g.reshape(head.raw.shape))
    return grads


class TestOnePass:
    """``total_loss`` computes the terms and the gradient in one pass; every
    bit equals the two passes it replaced."""

    @pytest.mark.parametrize("truth", ["boxes", "empty", "ignore_only"])
    @pytest.mark.parametrize("weights", [LossWeights(), LossWeights(2.5, 0.7, 0.3, 1.9)])
    def test_bitwise_equal_to_two_pass_reference(self, truth, weights):
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
            targets = assign_targets(boxes, heads)
            ignored_slots += sum(int(t.ignore_mask.sum()) for t in targets)
            if truth == "ignore_only":
                assert not any(t.obj_mask.any() for t in targets)
            breakdown = total_loss(heads, targets, weights)
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
        truth = [gt(20, 30, 14, 18), gt(40, 44, 30, 26, cls=1), gt(50, 10, 8, 8, ignore=True)]
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
            assign_targets([gt(20, 20, 10, 13)], heads, reads=reads)
        targets = assign_targets([gt(20, 20, 10, 13)], heads)
        with pytest.raises(ShapeError, match="2 head reads for 3 heads"):
            total_loss(heads, targets, reads=reads)


class TestSgd:
    def _one_param_net(self):
        net = random_init(toy_graph(2, 64), seed=0)
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

    def test_missing_gradients_rejected(self):
        net = self._one_param_net()
        with pytest.raises(UsageError):
            sgd_step(net, {}, lr=0.1, momentum=0.9)


class TestToyTraining:
    def test_zero_steps_empty_history(self):
        dataset = synthetic_dataset(num_images=4, seed=0)
        assert train_toy(dataset, toy_graph(), ToyTrainConfig(steps=0)) == []

    @pytest.mark.parametrize("steps, batch_size, num_images", [
        (-1, 16, 4), (3, 0, 4), (3, -2, 4), (3, 4, 0), (0, 4, 0),
    ])
    def test_bad_config_or_empty_dataset_rejected(self, steps, batch_size, num_images):
        # a batch of 0 and an empty set once divided by zero mid-run
        dataset = synthetic_dataset(num_images=4, seed=0)[:num_images]
        config = ToyTrainConfig(steps=steps, batch_size=batch_size)
        with pytest.raises(ValidationError):
            train_toy(dataset, toy_graph(), config)

    def test_deterministic_history(self):
        dataset = synthetic_dataset(num_images=8, seed=1)
        cfg = ToyTrainConfig(steps=3, batch_size=4, seed=1)
        a = train_toy(dataset, toy_graph(), cfg)
        b = train_toy(dataset, toy_graph(), cfg)
        assert a == b

    def test_each_head_read_once_per_image(self, monkeypatch):
        import yolokit.loss

        calls = []
        real = yolokit.loss.read_head

        def counting(head):
            calls.append(head.raw.shape)
            return real(head)

        monkeypatch.setattr(yolokit.loss, "read_head", counting)
        dataset = synthetic_dataset(num_images=4, seed=4)
        assert all(example.boxes for example in dataset)  # the assignment reads too
        train_toy(dataset, toy_graph(), ToyTrainConfig(steps=2, batch_size=3, seed=4))
        assert len(calls) == 6

    def test_loss_decreases_quickly(self):
        dataset = synthetic_dataset(num_images=16, seed=2)
        history = train_toy(dataset, toy_graph(), ToyTrainConfig(steps=15, batch_size=8, seed=2))
        assert history[-1] < history[0]

    def test_dataset_labels_are_exact_and_dumpable(self):
        dataset = synthetic_dataset(num_images=6, seed=3)
        for example in dataset:
            assert example.image.shape == (3, 64, 64)
            for box in example.boxes:
                # the labeled rectangle is exactly the painted color patch
                x0 = int(box.box.x - box.box.w / 2)
                y0 = int(box.box.y - box.box.h / 2)
                patch = example.image[:, y0 : y0 + int(box.box.h), x0 : x0 + int(box.box.w)]
                assert np.ptp(patch, axis=(1, 2)).max() == 0
            reparsed = parse_visdrone(format_visdrone(example.boxes), example.image_id)
            assert [(g.class_index, g.box) for g in reparsed] == [
                (g.class_index, g.box) for g in example.boxes
            ]
