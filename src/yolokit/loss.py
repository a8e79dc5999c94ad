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

from dataclasses import dataclass, field

import numpy as np

from .cfg import TOY_CLASSES, TOY_SIZE, ModelGraph
from .errors import NumericError, ShapeError, UsageError, ValidationError
from .evaluation import GroundTruth
from .detect import check_image, corner_table, iou_grid, letterbox, read_head
from .network import HeadOutput, Network
from .ops import GradTape
from .weights import check_seed, random_init


# The one training recipe check 8 gates: YOLOv1's term weights (coordinate,
# objectness, no-object objectness, class) and the toy trainer's SGD settings.
COORD_WEIGHT, IOU_WEIGHT, NOOBJ_WEIGHT, CLS_WEIGHT = 5.0, 1.0, 0.5, 1.0
LEARNING_RATE, MOMENTUM, BATCH_SIZE = 0.01, 0.9, 16


@dataclass
class HeadTargets:
    """One head's loss masks and encoded targets.

    ``encoded`` is in the head's raw layout (``HeadOutput.layout``): at a
    responsible slot, channels 0-1 hold the center's offsets in its cell,
    2-3 the sizes as input fractions and 5 + c the one-hot class; every other
    value is 0, channel 4 included, since ``obj_mask`` is the objectness
    target.
    """

    obj_mask: np.ndarray     # bool (3, S, S): responsible slots
    ignore_mask: np.ndarray  # bool (3, S, S): excluded from the no-object term
    encoded: np.ndarray      # float64 (3, 5 + C, S, S)


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


def assign_targets(ground_truth: GroundTruth, heads: list[HeadOutput],
                   reads=None) -> list[HeadTargets]:
    """Assign each box to its best-shaped anchor and build the loss masks.

    The boxes, a :class:`GroundTruth`'s rows, must be in network-input pixel
    coordinates. Each non-ignored box goes to the (head, cell, anchor) whose
    anchor has the highest IoU with the box when both are centered at the
    origin; when two boxes claim the same slot the first (row order) keeps
    it. Predicted boxes that overlap
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

    targets = [HeadTargets(np.zeros((3, *head.grid), dtype=bool),
                           np.zeros((3, *head.grid), dtype=bool), np.zeros(head.layout))
               for head in heads]

    anchor_table = [
        (hi, ai, aw, ah)
        for hi, head in enumerate(heads)
        for ai, (aw, ah) in enumerate(head.anchors)
    ]
    gt = ground_truth
    columns = (gt.x, gt.y, gt.w, gt.h, gt.class_index, gt.ignore)
    for x, y, w, h, cls, ignore in zip(*(column.tolist() for column in columns)):
        if not (0 <= x <= input_w and 0 <= y <= input_h):
            raise ValidationError(
                f"ground-truth center ({x}, {y}) outside the {input_w}x{input_h} input"
            )
        if ignore:
            continue
        best = max(anchor_table, key=lambda t: _shape_iou(w, h, t[2], t[3]))
        hi, ai = best[0], best[1]
        head, tgt = heads[hi], targets[hi]
        if not 0 <= cls < head.num_classes:
            raise ValidationError(f"ground-truth class {cls} is outside the "
                                  f"{head.num_classes} classes 0..{head.num_classes - 1}")
        rows, cols = head.grid
        col = min(int(x // head.stride), cols - 1)
        row = min(int(y // head.stride), rows - 1)
        if tgt.obj_mask[ai, row, col]:
            continue  # slot already claimed by an earlier box
        tgt.obj_mask[ai, row, col] = True
        tgt.encoded[ai, :4, row, col] = (x / head.stride - col, y / head.stride - row,
                                         w / input_w, h / input_h)
        tgt.encoded[ai, 5 + cls, row, col] = 1.0

    if len(gt):
        truth = corner_table(gt.x, gt.y, gt.w, gt.h)
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
        bad = [name for name, value in vars(tgt).items()
               if value.shape != (head.layout if name == "encoded" else (3, *head.grid))]
        if bad:
            raise ShapeError(f"head {index} targets {', '.join(bad)} do not fit its "
                             f"{head.layout} layout")
    return enumerate(zip(heads, targets))


def total_loss(heads, targets: list[HeadTargets], reads=None) -> LossBreakdown:
    """Composite squared-error loss and its gradient, from one pass per head.

    The total is exactly the sum of the parts; ``grads`` holds d(total)/d(raw
    head values), one array per head in the raw layout. ``reads`` are the
    heads as :func:`read_head` reads them, for a caller that already has
    them; the raw values must not have changed since. A head whose raw
    values, loss or gradient is not finite is a ``NumericError`` naming it.
    """
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
        obj, t = tgt.obj_mask, tgt.encoded
        noobj = ~obj & ~tgt.ignore_mask
        dx, dy = px - t[:, 0], py - t[:, 1]
        dw, dh = sw - np.sqrt(t[:, 2]), sh - np.sqrt(t[:, 3])
        dobj = pobj - obj
        dcls = pcls - t[:, 5:]
        coord += COORD_WEIGHT * float(np.sum((dx ** 2 + dy ** 2)[obj]))
        coord += COORD_WEIGHT * float(np.sum((dw ** 2 + dh ** 2)[obj]))
        iou_term += IOU_WEIGHT * float(np.sum((dobj ** 2)[obj]))
        iou_term += NOOBJ_WEIGHT * float(np.sum((pobj ** 2)[noobj]))
        cls_term += CLS_WEIGHT * float(np.sum((dcls ** 2) * obj[:, None, :, :]))

        g = np.empty(head.layout)
        g[:, 0] = COORD_WEIGHT * 2 * dx * px * (1 - px) * obj
        g[:, 1] = COORD_WEIGHT * 2 * dy * py * (1 - py) * obj
        # d/dt of (sqrt(a*e^t) - sqrt(b))^2 = (sqrt(a*e^t) - sqrt(b)) * sqrt(a*e^t)
        g[:, 2] = COORD_WEIGHT * dw * sw * obj
        g[:, 3] = COORD_WEIGHT * dh * sh * obj
        g[:, 4] = ((IOU_WEIGHT * 2 * dobj * obj + NOOBJ_WEIGHT * 2 * pobj * noobj)
                   * pobj * (1 - pobj))
        g[:, 5:] = CLS_WEIGHT * 2 * dcls * pcls * (1 - pcls) * obj[:, None, :, :]
        # an extent that overflows where the mask is 0 gives inf * 0 in g
        if not (np.isfinite(coord + iou_term + cls_term) and np.all(np.isfinite(g))):
            raise NumericError(f"head {index} (stride {head.stride}) gives a non-finite "
                               f"loss or gradient")
        grads.append(g.reshape(head.raw.shape))
    total = coord + iou_term + cls_term
    return LossBreakdown(total, coord, iou_term, cls_term, grads)


def loss_gradients(heads, targets: list[HeadTargets]) -> list[np.ndarray]:
    """d(total loss)/d(raw head values), one array per head: ``total_loss(...).grads``."""
    return total_loss(heads, targets).grads


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

TOY_IMAGES = 32  # frames in the toy set
_TOY_COLORS = (  # 8-bit RGB, one per class
    (217, 38, 26),
    (26, 76, 217),
)
_TOY_MAX_SIDE = 28  # a rectangle's sides are 12..28 pixels


@dataclass
class ToyExample:
    image_id: str
    image: np.ndarray  # (3, TOY_SIZE, TOY_SIZE) uint8 frame
    boxes: GroundTruth  # the frame's labels, in drawing order


def synthetic_dataset(seed: int = 0) -> list[ToyExample]:
    """``TOY_IMAGES`` seeded colored rectangles on noise backgrounds, with
    exact labels.

    Each frame is a (3, TOY_SIZE, TOY_SIZE) uint8 array, the form
    ``read_ppm`` returns: noise drawn in [0, 0.3] of full scale and rounded
    to 8 bits, under one or two rectangles of a class's ``_TOY_COLORS``
    color, each at least a pixel from the border. Each frame's labels are a
    :class:`GroundTruth` of its rectangles. The frames are drawn in order
    from one generator.
    """
    check_seed(seed)
    rng = np.random.default_rng(seed)
    examples = []
    for n in range(TOY_IMAGES):
        noise = rng.uniform(0.0, 0.3, size=(3, TOY_SIZE, TOY_SIZE))
        image = np.rint(noise * 255).astype(np.uint8)
        classes = []
        placed = []
        for _ in range(int(rng.integers(1, 3))):
            for _attempt in range(10):
                w = int(rng.integers(12, _TOY_MAX_SIDE + 1))
                h = int(rng.integers(12, _TOY_MAX_SIDE + 1))
                x0 = int(rng.integers(1, TOY_SIZE - w - 1))
                y0 = int(rng.integers(1, TOY_SIZE - h - 1))
                if all(
                    x0 + w <= px or px + pw <= x0 or y0 + h <= py or py + ph <= y0
                    for px, py, pw, ph in placed
                ):
                    break
            else:
                continue
            cls = int(rng.integers(TOY_CLASSES))
            image[:, y0 : y0 + h, x0 : x0 + w] = np.array(_TOY_COLORS[cls])[:, None, None]
            placed.append((x0, y0, w, h))
            classes.append(cls)
        x0, y0, w, h = np.array(placed, dtype=np.float64).reshape(-1, 4).T
        classes = np.array(classes, dtype=np.int64)
        boxes = GroundTruth((f"toy_{n:03d}",), np.zeros_like(classes), classes,
                            np.zeros(len(classes), dtype=bool), x0 + w / 2, y0 + h / 2, w, h)
        examples.append(ToyExample(f"toy_{n:03d}", image, boxes))
    return examples


@dataclass(frozen=True)
class ToyTrainConfig:
    """The toy trainer's step count and seed, checked when made: a
    ValidationError names the first one out of range."""

    steps: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ValidationError(f"steps must be >= 0, got {self.steps}")
        check_seed(self.seed)


def _network_input(example: ToyExample, dtype) -> np.ndarray:
    """``example``'s frame through ``letterbox`` at its own side: scale 1,
    no border, so its boxes hold as drawn. A frame that is not a square
    uint8 array is a ValidationError naming the example."""
    try:
        _, h, w = check_image(example.image).shape
    except ValidationError as exc:
        raise ValidationError(f"{example.image_id}: {exc}") from None
    if h != w:
        raise ValidationError(f"{example.image_id}: image: expected a square frame, got {h}x{w}")
    return letterbox(example.image, h, dtype)[0]


def _train_image(net: Network, tape: GradTape, image: np.ndarray,
                 boxes: GroundTruth) -> float:
    """Forward, loss and backward of one image on ``tape``; returns its loss.

    Nothing of the pass outlives the call, so the tape's reset can take back
    every array it lent. A diverging forward or head read overflows without
    numpy's warnings: ``total_loss`` refuses the head's non-finite raw
    values, loss or gradient by name.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        heads = net.forward(image, tape)
        reads = [read_head(head) for head in heads]
        targets = assign_targets(boxes, heads, reads=reads)
        breakdown = total_loss(heads, targets, reads)
    net.backward(tape, zip(heads, breakdown.grads))
    return breakdown.total


def train_toy(dataset: list[ToyExample], graph: ModelGraph,
              config: ToyTrainConfig | None = None) -> list[float]:
    """Gradient-accumulated SGD over the toy set; returns per-step mean loss.

    The network trains in float32, the dtype the weights file stores: its
    parameters, gradients, velocities and activations are float32, and the
    loss reads each head in float64 (``read_head``) and hands back a gradient
    cast to the head's dtype. Each example's uint8 frame goes through
    ``letterbox`` once, before the first step; a frame that is not a square
    uint8 array is a ``ValidationError``. Each step accumulates gradients over
    ``BATCH_SIZE`` consecutive images (wrapping around the dataset), averages
    them, and applies one momentum update at ``LEARNING_RATE`` and
    ``MOMENTUM``. One tape records every image and
    is reset after each, so one image's arrays are alive at a time and later
    images reuse them. A forward, loss or loss gradient that goes non-finite
    raises ``NumericError`` naming the step, the image and the head. Fully
    deterministic for a fixed seed.
    """
    config = config or ToyTrainConfig()
    if not dataset:
        raise ValidationError("the toy dataset is empty")
    net = random_init(graph, seed=config.seed, dtype=np.float32)
    images = [_network_input(example, net.dtype) for example in dataset]
    tape = GradTape()
    state: dict = {}
    history: list[float] = []
    cursor = 0
    for step in range(config.steps):
        net.zero_grads()
        batch_loss = 0.0
        for _ in range(BATCH_SIZE):
            k = cursor % len(dataset)
            cursor += 1
            example = dataset[k]
            try:
                batch_loss += _train_image(net, tape, images[k], example.boxes)
            except NumericError as exc:
                raise NumericError(f"training diverged at step {step}, image "
                                   f"{example.image_id}: {exc}") from None
            tape.reset()
        mean_loss = batch_loss / BATCH_SIZE
        if not np.isfinite(mean_loss):
            raise NumericError(f"training diverged at step {step}: loss {mean_loss}")
        for _, p in net.conv_layers():
            for _name, _value, grad in p.learnable():
                grad /= BATCH_SIZE
        sgd_step(net, state, LEARNING_RATE, MOMENTUM)
        history.append(mean_loss)
    return history
