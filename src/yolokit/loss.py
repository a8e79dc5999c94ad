"""Training loss, anchor assignment, SGD with momentum, and a toy trainer.

The loss is the sum of three squared-error terms over the head grids:
coordinate error on responsible anchors (centers in cell units, sizes via
square roots of image fractions), objectness error (target 1 on responsible
anchors, 0 on non-responsible ones outside the ignore set), and per-class
probability error on responsible anchors. Masks are computed once during
assignment and held fixed, so the loss is a smooth function of the raw head
values and finite-difference checks apply everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .cfg import ModelGraph, parse_cfg
from .errors import NumericError, ShapeError, UsageError, ValidationError
from .evaluation import GroundTruthBox
from .detect import Box, corner_table, iou_grid, read_head
from .network import HeadOutput, Network
from .ops import GradTape
from .weights import check_seed, random_init


@dataclass
class LossWeights:
    """Finite, nonnegative multipliers for the three loss terms (and no-object belief)."""

    coord: float = 5.0
    iou: float = 1.0
    noobj: float = 0.5
    cls: float = 1.0

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (np.isfinite(value) and value >= 0):
                raise ValidationError(f"loss weight {f.name} must be finite and >= 0, got {value}")


@dataclass
class HeadTargets:
    """Per-(anchor, row, col) masks and encoded targets for one head."""

    obj_mask: np.ndarray     # bool (3, S, S): responsible slots
    ignore_mask: np.ndarray  # bool (3, S, S): excluded from the no-object term
    tx: np.ndarray           # target center offsets within the cell, [0, 1)
    ty: np.ndarray
    tw: np.ndarray           # target sizes as image fractions
    th: np.ndarray
    cls_index: np.ndarray    # int (3, S, S), -1 where not responsible


@dataclass
class LossBreakdown:
    total: float
    coord: float
    iou: float
    cls: float
    grads: list[np.ndarray] = field(default_factory=list, repr=False, compare=False)


def _check_reads(heads, reads) -> None:
    if reads is not None and len(reads) != len(heads):
        raise ShapeError(f"{len(reads)} head reads for {len(heads)} heads")


def _shape_iou(w1, h1, w2, h2):
    inter = min(w1, w2) * min(h1, h2)
    return inter / (w1 * h1 + w2 * h2 - inter)


def assign_targets(ground_truth, heads: list[HeadOutput], reads=None) -> list[HeadTargets]:
    """Assign each box to its best-shaped anchor and build the loss masks.

    Boxes must be in network-input pixel coordinates. Each non-ignored box
    goes to the (head, cell, anchor) whose anchor has the highest IoU with
    the box when both are centered at the origin; when two boxes claim the
    same slot the first (input order) keeps it. Predicted boxes that overlap
    any ground-truth box above their head's ``ignore_thresh`` without being
    responsible land in the ignore mask and are excluded from the no-object
    term. ``reads`` are the heads as :func:`read_head` reads them, as for
    :func:`total_loss`. Returns one :class:`HeadTargets` per head. A
    center outside the input, or a non-ignored box whose class is not one of
    its head's classes, is a ``ValidationError``.
    """
    if not heads:
        raise UsageError("need at least one head to assign targets against")
    _check_reads(heads, reads)
    input_h = heads[0].stride * heads[0].grid[0]
    input_w = heads[0].stride * heads[0].grid[1]

    targets = []
    for head in heads:
        rows, cols = head.grid
        targets.append(
            HeadTargets(
                obj_mask=np.zeros((3, rows, cols), dtype=bool),
                ignore_mask=np.zeros((3, rows, cols), dtype=bool),
                tx=np.zeros((3, rows, cols)),
                ty=np.zeros((3, rows, cols)),
                tw=np.zeros((3, rows, cols)),
                th=np.zeros((3, rows, cols)),
                cls_index=np.full((3, rows, cols), -1, dtype=int),
            )
        )

    anchor_table = [
        (hi, ai, aw, ah)
        for hi, head in enumerate(heads)
        for ai, (aw, ah) in enumerate(head.anchors)
    ]
    for gt in ground_truth:
        box = gt.box
        if not (0 <= box.x <= input_w and 0 <= box.y <= input_h):
            raise ValidationError(
                f"ground-truth center ({box.x}, {box.y}) outside the "
                f"{input_w}x{input_h} input"
            )
        if gt.ignore:
            continue
        best = max(anchor_table, key=lambda t: _shape_iou(box.w, box.h, t[2], t[3]))
        hi, ai = best[0], best[1]
        head, tgt = heads[hi], targets[hi]
        if not 0 <= gt.class_index < head.num_classes:
            raise ValidationError(f"ground-truth class {gt.class_index} is outside the "
                                  f"{head.num_classes} classes 0..{head.num_classes - 1}")
        rows, cols = head.grid
        col = min(int(box.x // head.stride), cols - 1)
        row = min(int(box.y // head.stride), rows - 1)
        if tgt.obj_mask[ai, row, col]:
            continue  # slot already claimed by an earlier box
        tgt.obj_mask[ai, row, col] = True
        tgt.tx[ai, row, col] = box.x / head.stride - col
        tgt.ty[ai, row, col] = box.y / head.stride - row
        tgt.tw[ai, row, col] = box.w / input_w
        tgt.th[ai, row, col] = box.h / input_h
        tgt.cls_index[ai, row, col] = gt.class_index

    if ground_truth:
        truth = corner_table(*np.array([(g.box.x, g.box.y, g.box.w, g.box.h)
                                        for g in ground_truth]).T)
        for index, (head, tgt) in enumerate(zip(heads, targets)):
            pred = read_head(head) if reads is None else reads[index]
            slots = corner_table(pred.x, pred.y, pred.w, pred.h).reshape(5, -1)
            best_iou = iou_grid(slots[:, :, None], truth).max(axis=1).reshape(tgt.obj_mask.shape)
            tgt.ignore_mask = (best_iou > head.ignore_thresh) & ~tgt.obj_mask
    return targets


def _paired(heads, targets: list[HeadTargets]):
    """(index, (head, targets)) pairs; the targets must fit the heads."""
    if len(heads) != len(targets):
        raise ShapeError(f"targets for {len(targets)} heads, the loss got {len(heads)}")
    for index, (head, tgt) in enumerate(zip(heads, targets)):
        bad = [name for name, mask in vars(tgt).items() if mask.shape != (3, *head.grid)]
        if bad:
            raise ShapeError(f"head {index} targets {', '.join(bad)} do not fit its "
                             f"{head.grid} grid")
    return enumerate(zip(heads, targets))


def _one_hot(tgt: HeadTargets, num_classes: int):
    hot = np.zeros((3, num_classes) + tgt.cls_index.shape[1:], dtype=float)
    a, i, j = np.nonzero(tgt.obj_mask)
    hot[a, tgt.cls_index[a, i, j], i, j] = 1.0
    return hot


def total_loss(heads, targets: list[HeadTargets], weights: LossWeights | None = None,
               reads=None) -> LossBreakdown:
    """Composite squared-error loss and its gradient, from one pass per head.

    The total is exactly the sum of the parts; ``grads`` holds d(total)/d(raw
    head values), one array per head in the raw layout. ``reads`` are the
    heads as :func:`read_head` reads them, for a caller that already has
    them; the raw values must not have changed since. A head whose raw
    values, loss or gradient is not finite is a ``NumericError`` naming it.
    """
    w = weights or LossWeights()
    w.validate()
    _check_reads(heads, reads)
    coord = iou_term = cls_term = 0.0
    grads = []
    for index, (head, tgt) in _paired(heads, targets):
        if not np.all(np.isfinite(head.raw)):
            raise NumericError(f"head {index} (stride {head.stride}) has non-finite raw values")
        pred = read_head(head) if reads is None else reads[index]
        rows, cols = head.grid
        px, py, pobj, pcls = pred.off_x, pred.off_y, pred.objectness, pred.class_probs
        # square roots of the extents as image fractions
        sw = np.sqrt(pred.w / (head.stride * cols))
        sh = np.sqrt(pred.h / (head.stride * rows))
        obj = tgt.obj_mask
        noobj = ~obj & ~tgt.ignore_mask
        dx, dy = px - tgt.tx, py - tgt.ty
        dw, dh = sw - np.sqrt(tgt.tw), sh - np.sqrt(tgt.th)
        dobj = pobj - obj
        dcls = pcls - _one_hot(tgt, head.num_classes)
        coord += w.coord * float(np.sum((dx ** 2 + dy ** 2)[obj]))
        coord += w.coord * float(np.sum((dw ** 2 + dh ** 2)[obj]))
        iou_term += w.iou * float(np.sum((dobj ** 2)[obj]))
        iou_term += w.noobj * float(np.sum((pobj ** 2)[noobj]))
        cls_term += w.cls * float(np.sum((dcls ** 2) * obj[:, None, :, :]))

        g = np.empty((3, 5 + head.num_classes, rows, cols))
        g[:, 0] = w.coord * 2 * dx * px * (1 - px) * obj
        g[:, 1] = w.coord * 2 * dy * py * (1 - py) * obj
        # d/dt of (sqrt(a*e^t) - sqrt(b))^2 = (sqrt(a*e^t) - sqrt(b)) * sqrt(a*e^t)
        g[:, 2] = w.coord * dw * sw * obj
        g[:, 3] = w.coord * dh * sh * obj
        g[:, 4] = (w.iou * 2 * dobj * obj + w.noobj * 2 * pobj * noobj) * pobj * (1 - pobj)
        g[:, 5:] = w.cls * 2 * dcls * pcls * (1 - pcls) * obj[:, None, :, :]
        # an extent that overflows where the mask is 0 gives inf * 0 in g
        if not (np.isfinite(coord + iou_term + cls_term) and np.all(np.isfinite(g))):
            raise NumericError(f"head {index} (stride {head.stride}) gives a non-finite "
                               f"loss or gradient")
        grads.append(g.reshape(head.raw.shape))
    total = coord + iou_term + cls_term
    return LossBreakdown(total, coord, iou_term, cls_term, grads)


def loss_gradients(heads, targets: list[HeadTargets],
                   weights: LossWeights | None = None) -> list[np.ndarray]:
    """d(total loss)/d(raw head values), one array per head: ``total_loss(...).grads``."""
    return total_loss(heads, targets, weights).grads


def sgd_step(network: Network, state: dict, lr: float, momentum: float) -> None:
    """One momentum-SGD update from the accumulated parameter gradients.

    ``v <- momentum*v + g; p <- p - lr*v`` for every learnable array.
    ``state`` maps (layer index, array name) to its velocity buffer and is
    created lazily; pass the same dict across steps.
    """
    for i, p in network.conv_layers():
        for name, value, grad in p.learnable():
            if grad is None:
                raise UsageError(f"layer {i} has no gradients; run a backward pass first")
            key = (i, name)
            velocity = state.get(key)
            if velocity is None:
                velocity = np.zeros_like(value)
                state[key] = velocity
            velocity *= momentum
            velocity += grad
            value -= lr * velocity


# ---------------------------------------------------------------------------
# Synthetic data and the toy trainer
# ---------------------------------------------------------------------------

_TOY_COLORS = (
    (0.85, 0.15, 0.10),
    (0.10, 0.30, 0.85),
    (0.90, 0.80, 0.10),
    (0.15, 0.80, 0.30),
)


@dataclass
class ToyExample:
    image_id: str
    image: np.ndarray
    boxes: list[GroundTruthBox] = field(default_factory=list)


def synthetic_dataset(num_images: int = 32, size: int = 64, num_classes: int = 2,
                      seed: int = 0) -> list[ToyExample]:
    """Seeded colored rectangles on noise backgrounds, with exact labels."""
    if num_classes > len(_TOY_COLORS):
        raise UsageError(f"at most {len(_TOY_COLORS)} synthetic classes supported")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    examples = []
    for n in range(num_images):
        image = rng.uniform(0.0, 0.3, size=(3, size, size))
        boxes = []
        placed = []
        for _ in range(int(rng.integers(1, 3))):
            for _attempt in range(10):
                w = int(rng.integers(12, 29))
                h = int(rng.integers(12, 29))
                x0 = int(rng.integers(1, size - w - 1))
                y0 = int(rng.integers(1, size - h - 1))
                if all(
                    x0 + w <= px or px + pw <= x0 or y0 + h <= py or py + ph <= y0
                    for px, py, pw, ph in placed
                ):
                    break
            else:
                continue
            cls = int(rng.integers(num_classes))
            color = np.array(_TOY_COLORS[cls])[:, None, None]
            image[:, y0 : y0 + h, x0 : x0 + w] = color
            placed.append((x0, y0, w, h))
            boxes.append(
                GroundTruthBox(f"toy_{n:03d}", cls, Box(x0 + w / 2, y0 + h / 2, w, h))
            )
        examples.append(ToyExample(f"toy_{n:03d}", image, boxes))
    return examples


_TOY_CFG = """\
[net]
width={size}
height={size}
channels=3

[convolutional]
filters=8
size=3
stride=1
pad=1
batch_normalize=1
activation=leaky

[convolutional]
filters=16
size=3
stride=2
pad=1
batch_normalize=1
activation=leaky

[convolutional]
filters=16
size=3
stride=2
pad=1
batch_normalize=1
activation=leaky

[convolutional]
filters=32
size=3
stride=2
pad=1
batch_normalize=1
activation=leaky

[convolutional]
filters={head}
size=1
stride=1
pad=1
activation=linear

[yolo]
classes={classes}
num=3
mask=0,1,2
anchors=10,13,16,30,33,23
ignore_thresh=0.5
"""


def toy_graph(num_classes: int = 2, size: int = 64) -> ModelGraph:
    """Six-layer detection micrograph (5 convs + 1 head) at stride 8."""
    text = _TOY_CFG.format(size=size, head=3 * (5 + num_classes), classes=num_classes)
    return parse_cfg(text)


@dataclass
class ToyTrainConfig:
    steps: int = 200
    lr: float = 0.01
    momentum: float = 0.9
    batch_size: int = 16
    seed: int = 0
    loss_weights: LossWeights = field(default_factory=LossWeights)

    def validate(self):
        if self.steps < 0:
            raise ValidationError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValidationError(f"lr must be finite and > 0, got {self.lr}")
        if not (np.isfinite(self.momentum) and 0 <= self.momentum < 1):
            raise ValidationError(f"momentum must lie in [0, 1), got {self.momentum}")
        check_seed(self.seed)
        self.loss_weights.validate()


def _train_image(net: Network, tape: GradTape, example: ToyExample,
                 weights: LossWeights) -> float:
    """Forward, loss and backward of one image on ``tape``; returns its loss.

    Nothing of the pass outlives the call, so the tape's reset can take back
    every array it lent. A diverging forward or head read overflows without
    numpy's warnings: ``total_loss`` refuses the head's non-finite raw
    values, loss or gradient by name.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        heads = net.forward(example.image, tape)
        reads = [read_head(head) for head in heads]
        targets = assign_targets(example.boxes, heads, reads=reads)
        breakdown = total_loss(heads, targets, weights, reads)
    net.backward(tape, zip(heads, breakdown.grads))
    return breakdown.total


def train_toy(dataset: list[ToyExample], graph: ModelGraph,
              config: ToyTrainConfig | None = None) -> list[float]:
    """Gradient-accumulated SGD over the toy set; returns per-step mean loss.

    The network trains in float32, the dtype the weights file stores: its
    parameters, gradients, velocities and activations are float32, and the
    loss reads each head in float64 (``read_head``) and hands back a gradient
    cast to the head's dtype. Each step accumulates gradients over
    ``batch_size`` consecutive images (wrapping around the dataset), averages
    them, and applies one momentum update. One tape records every image and
    is reset after each, so one image's arrays are alive at a time and later
    images reuse them. A forward, loss or loss gradient that goes non-finite
    raises ``NumericError`` naming the step, the image and the head. Fully
    deterministic for a fixed seed.
    """
    config = config or ToyTrainConfig()
    config.validate()
    if not dataset:
        raise ValidationError("the toy dataset is empty")
    net = random_init(graph, seed=config.seed, dtype=np.float32)
    tape = GradTape()
    state: dict = {}
    history: list[float] = []
    cursor = 0
    for step in range(config.steps):
        net.zero_grads()
        batch_loss = 0.0
        for _ in range(config.batch_size):
            example = dataset[cursor % len(dataset)]
            cursor += 1
            try:
                batch_loss += _train_image(net, tape, example, config.loss_weights)
            except NumericError as exc:
                raise NumericError(f"training diverged at step {step}, image "
                                   f"{example.image_id}: {exc}") from None
            tape.reset()
        mean_loss = batch_loss / config.batch_size
        if not np.isfinite(mean_loss):
            raise NumericError(f"training diverged at step {step}: loss {mean_loss}")
        for _, p in net.conv_layers():
            for _name, _value, grad in p.learnable():
                grad /= config.batch_size
        sgd_step(net, state, config.lr, config.momentum)
        history.append(mean_loss)
    return history
