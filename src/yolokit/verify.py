"""Self-verification suite: every check the kit must pass, in one place.

Each check returns a :class:`CheckResult` with the measured value and its
limit; ``run_all`` executes the whole battery. The CLI ``verify`` subcommand
prints one line per check and exits nonzero if any fails.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import oracles
from .cfg import (ModelGraph, builtin_graph, graph_equal, head_channels, parse_cfg,
                  shape_check, toy_graph)
from .detect import Box, Detection, Detections, decode, iou, nms, IDENTITY_TRANSFORM
from .evaluation import (
    GroundTruth,
    GroundTruthBox,
    average_precision,
    evaluate,
    format_predictions,
    match,
    parse_predictions,
    pr_curve,
)
from .errors import ValidationError
from .gradcheck import finite_difference, relative_errors, run_gradient_fidelity
from .loss import (
    ToyTrainConfig,
    assign_targets,
    synthetic_dataset,
    total_loss,
    train_toy,
)
from .network import HeadOutput, Network
from .ops import sigmoid
from .weights import load_weights, random_init, save_weights

GRAD_TOLERANCE = 1e-4
# run_layers against oracles.graph_forward in float64, relative to each
# layer's largest value: only the order of the convolutions' sums differs
# (worst seen on seeds 0-4: 8.2e-16)
FORWARD_TOLERANCE = 1e-12
EVAL_TOLERANCE = 1e-9
SPP_TRIALS = 100  # random shapes through the SPP block
EVAL_INSTANCES = 500  # random instances against the brute-force evaluator


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: str
    limit: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: {self.measured} (limit {self.limit}, "
            f"{self.seconds:.1f}s)"
        )


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _loss_fixture(seed: int):
    rng = np.random.default_rng(seed)
    raw = rng.normal(0.0, 1.0, size=(21, 2, 2))
    head = HeadOutput(
        stride=32,
        raw=raw,
        anchors=[(10.0, 13.0), (16.0, 30.0), (33.0, 23.0)],
        ignore_thresh=0.5,
    )
    truth = [
        GroundTruthBox("fixture", 0, Box(20.0, 24.0, 18.0, 22.0)),
        GroundTruthBox("fixture", 1, Box(50.0, 40.0, 30.0, 28.0)),
    ]
    return head, truth


def check_gradient_fidelity(seed: int = 0, fault: float = 0.0) -> CheckResult:
    """Random-graph parameter gradients and the full loss gradient vs FD;
    the random graphs' forward vs ``oracles.graph_forward``."""

    def run():
        summary = run_gradient_fidelity(seed, fault=fault)
        head, truth = _loss_fixture(seed + 1)
        targets = assign_targets(truth, [head])
        assert targets[0].obj_mask.any()
        assert not targets[0].obj_mask.all()
        analytic = total_loss([head], targets).grads[0]
        fd = finite_difference(lambda: total_loss([head], targets).total, head.raw)
        loss_err = float(relative_errors(analytic.ravel(), fd.ravel()).max())
        return max(summary.max_rel_error, loss_err), summary

    (worst, summary), seconds = _timed(run)
    forward_ok = summary.forward_rel_error <= FORWARD_TOLERANCE
    passed = worst <= GRAD_TOLERANCE and forward_ok and seconds <= 60.0
    return CheckResult(
        "gradient-fidelity",
        passed,
        f"max rel err {worst:.3e} over {summary.checked} params "
        f"({summary.skipped} kink-crossing probes excluded) + loss fixture; "
        f"forward vs oracle graph_forward {summary.forward_rel_error:.1e}",
        f"{GRAD_TOLERANCE:g}, forward {FORWARD_TOLERANCE:g}, 60s",
        seconds,
    )


def spp_insertion(plain: ModelGraph, spp: ModelGraph) -> tuple[int, int]:
    """(first index, length) of the layers ``spp`` inserts into ``plain``."""
    prefix = 0
    while (
        prefix < len(plain.layers)
        and plain.layers[prefix].kind == spp.layers[prefix].kind
        and plain.layers[prefix].attrs == spp.layers[prefix].attrs
    ):
        prefix += 1
    return prefix, len(spp.layers) - len(plain.layers)


def spp_block_forward(x: np.ndarray) -> np.ndarray:
    """The builtin yolov3_spp graph's own pool/route block run on ``x``.

    The block is everything the SPP variant inserts except its closing
    fusion conv; it runs through ``Network.run_layers``, the forward loop.
    """
    spp = builtin_graph("yolov3_spp", 10)
    start, inserted = spp_insertion(builtin_graph("yolov3", 10), spp)
    stop = start + inserted - 1
    return Network(spp).run_layers(x, start, stop)[stop - 1]


def check_spp_contract(seed: int = 0) -> CheckResult:
    """Pyramid pooling in the graph: darknet order [pool13, pool9, pool5, x],
    exact shape, each pool == window-scan oracle bitwise, dominance."""

    def run():
        rng = np.random.default_rng(seed)
        for _ in range(SPP_TRIALS):
            c = int(rng.integers(1, 33))
            h = int(rng.integers(1, 65))
            w = int(rng.integers(1, 65))
            x = rng.standard_normal((c, h, w))
            out = spp_block_forward(x)
            if out.shape != (4 * c, h, w):
                return False, f"shape {out.shape} != {(4 * c, h, w)}"
            if not np.array_equal(out[3 * c :], x):
                return False, "identity branch altered or not last"
            for branch, (k, pad) in enumerate(((13, 6), (9, 4), (5, 2))):
                got = out[branch * c : (branch + 1) * c]
                want = oracles.maxpool_scan(x, k, 1, pad)
                if not np.array_equal(got, want):
                    return False, f"k={k} branch differs from window-scan oracle"
                if not np.all(got >= x):
                    return False, f"k={k} branch does not dominate identity"
        return True, f"{SPP_TRIALS} random shapes, graph block in darknet order, bitwise"

    (ok, detail), seconds = _timed(run)
    return CheckResult("spp-contract", ok, detail, "exact", seconds)


def check_architecture_layout() -> CheckResult:
    """Backbone depth, head grid sizes at two input scales, head channels."""

    def run():
        graph = builtin_graph("yolov3", 80)
        last_shortcut = max(
            i for i, layer in enumerate(graph.layers) if layer.kind == "shortcut"
        )
        backbone_convs = sum(
            1 for layer in graph.layers[: last_shortcut + 1] if layer.kind == "convolutional"
        )
        if backbone_convs != 52:
            return False, f"backbone convs {backbone_convs} != 52"
        for size, expected in ((256, {32, 16, 8}), (640, {80, 40, 20})):
            shapes = shape_check(graph, size, size)
            grids = {
                shapes[i][1]
                for i, layer in enumerate(graph.layers)
                if layer.kind == "yolo"
            }
            if grids != expected:
                return False, f"grids at {size}: {sorted(grids)} != {sorted(expected)}"
        head_channels = {
            shapes[i][0] for i, layer in enumerate(graph.layers) if layer.kind == "yolo"
        }
        if head_channels != {255}:
            return False, f"head channels {head_channels} != 255 at 80 classes"
        spp = builtin_graph("yolov3_spp", 10)
        shapes = shape_check(spp, 640, 640)
        spp_channels = {
            shapes[i][0] for i, layer in enumerate(spp.layers) if layer.kind == "yolo"
        }
        if spp_channels != {45}:
            return False, f"head channels {spp_channels} != 45 at 10 classes"
        return True, "52 backbone convs; grids 32/16/8 and 80/40/20; channels 255/45"

    (ok, detail), seconds = _timed(run)
    return CheckResult("architecture-layout", ok, detail, "exact", seconds)


def _random_eval_instance(rng):
    num_classes = int(rng.integers(1, 4))
    # a third of the instances are one image of small integer boxes on a
    # strip, with detections shifted a pixel off the truth and one-decimal
    # scores: equal IoUs, IoU exactly at the threshold and score ties
    coarse = rng.random() < 1 / 3
    quantize = coarse or rng.random() < 0.3  # score ties, across images too
    n_images = 1 if coarse else int(rng.integers(1, 6))

    def box():
        if coarse:
            return Box(int(rng.integers(0, 6)), int(rng.integers(0, 2)),
                       *rng.integers(3, 5, 2).tolist())
        return Box(*rng.uniform(10, 90, size=2), *rng.uniform(8, 30, size=2))

    def score():
        value = float(rng.uniform(0.05, 1.0))
        return round(value, 1) if quantize else value

    truth = []
    for _ in range(int(rng.integers(0, 11))):
        image_id = f"im{int(rng.integers(n_images))}"
        if rng.random() < 0.15:  # ignore regions carry -1 or a real class
            cls = int(rng.integers(-1, num_classes))
            truth.append(GroundTruthBox(image_id, cls, box(), ignore=True))
        else:
            truth.append(GroundTruthBox(image_id, int(rng.integers(num_classes)), box()))
    detections = []
    for gt in truth:
        if len(detections) >= 10 or rng.random() > 0.7:
            continue
        cls = int(rng.integers(num_classes)) if (gt.ignore or rng.random() < 0.2) \
            else gt.class_index
        if coarse:
            near = Box(gt.box.x + int(rng.integers(-1, 2)), gt.box.y, gt.box.w, gt.box.h)
        else:
            near = Box(gt.box.x + rng.normal(0, 3), gt.box.y + rng.normal(0, 3),
                       gt.box.w * rng.uniform(0.7, 1.3), gt.box.h * rng.uniform(0.7, 1.3))
        detections.append(Detection(gt.image_id, cls, score(), near))
    for _ in range(int(rng.integers(0, 6))):
        if len(detections) >= 10:
            break
        detections.append(
            Detection(f"im{int(rng.integers(n_images))}", int(rng.integers(num_classes)),
                      score(), box())
        )
    return detections, truth, num_classes


def check_evaluator_oracle(seed: int = 0) -> CheckResult:
    """evaluate() vs the brute-force evaluator, plus permutation invariance.

    The matcher's labels, on columns as the CLI passes them, must also equal
    the oracle loop's row for row, in order.
    """

    def run():
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(EVAL_INSTANCES):
            detections, truth, num_classes = _random_eval_instance(rng)
            labeled, _ = match(Detections.of(detections), GroundTruth.of(truth))
            expected = oracles.match_loop(detections, truth)
            if list(zip(labeled.detections, labeled.is_tp.tolist())) != expected:
                return np.inf, "match labels differ from the oracle loop"
            report = evaluate(detections, truth, num_classes)
            oracle_aps, oracle_map = oracles.brute_force_evaluate(
                detections, truth, num_classes
            )
            for result, oracle_ap in zip(report.per_class, oracle_aps):
                worst = max(worst, abs(result.ap - oracle_ap))
            worst = max(worst, abs(report.map_fraction - oracle_map))

            shuffled_dets = list(detections)
            shuffled_truth = list(truth)
            rng.shuffle(shuffled_dets)
            rng.shuffle(shuffled_truth)
            again = evaluate(shuffled_dets, shuffled_truth, num_classes)
            if [c.ap for c in again.per_class] != [c.ap for c in report.per_class]:
                return np.inf, "permutation changed an AP"
            if (again.map_fraction, again.precision, again.recall) != (
                report.map_fraction,
                report.precision,
                report.recall,
            ):
                return np.inf, "permutation changed the report"
        return worst, f"{EVAL_INSTANCES} instances, labels equal oracle, worst |diff| {worst:.2e}"

    (worst, detail), seconds = _timed(run)
    detail = detail if isinstance(detail, str) else str(detail)
    passed = worst <= EVAL_TOLERANCE and seconds <= 60.0
    return CheckResult("evaluator-oracle", passed, detail, f"{EVAL_TOLERANCE:g}, 60s", seconds)


def check_ap_fixture() -> CheckResult:
    """Hand-worked curve: labels TP, FP, TP over 2 boxes must give AP 5/6."""

    def run():
        scores, is_tp = [0.9, 0.8, 0.7], [True, False, True]
        ap = average_precision(*pr_curve(scores, is_tp, 2))
        oracle_ap = oracles.ap_threshold_enumeration(list(zip(scores, is_tp)), 2)
        # end to end through the matcher and the prediction file format
        truth = [
            GroundTruthBox("img", 0, Box(20, 20, 10, 10)),
            GroundTruthBox("img", 0, Box(60, 60, 10, 10)),
        ]
        detections = [
            Detection("img", 0, 0.9, Box(20, 20, 10, 10)),
            Detection("img", 0, 0.8, Box(40, 40, 10, 10)),
            Detection("img", 0, 0.7, Box(60, 60, 10, 10)),
        ]
        reparsed = parse_predictions(format_predictions(detections))
        report = evaluate(reparsed, truth, 1)
        return max(
            abs(ap - 5 / 6), abs(oracle_ap - 5 / 6), abs(report.per_class[0].ap - 5 / 6)
        )

    diff, seconds = _timed(run)
    return CheckResult(
        "ap-hand-fixture", diff < 1e-12, f"|AP - 5/6| = {diff:.2e}", "1e-12", seconds
    )


_SINGLE_CONV_CFG = """\
[net]
width=64
height=64
channels=3

[convolutional]
filters=32
size=3
stride=1
pad=1
batch_normalize=1
activation=leaky
"""


def _networks_equal(a: Network, b: Network) -> bool:
    return all(
        np.array_equal(getattr(pa, name), getattr(pb, name))
        for (_, pa), (_, pb) in zip(a.conv_layers(), b.conv_layers())
        for name, _ in pa.stored()
    )


def check_weights_roundtrip(seed: int = 0) -> CheckResult:
    """save->load parameter identity and load->save byte identity."""

    def run():
        small_graph = parse_cfg(_SINGLE_CONV_CFG)
        net = random_init(small_graph, seed=seed)
        blob = save_weights(net)
        expected = 20 + 4 * (4 * 32 + 32 * 3 * 9)
        if len(blob) != expected:
            return False, f"1-layer blob {len(blob)} bytes != {expected}"
        reloaded = load_weights(small_graph, blob)
        if not _networks_equal(net, reloaded):
            return False, "1-layer parameters changed across save/load"
        if save_weights(reloaded) != blob:
            return False, "1-layer bytes changed across load/save"

        graph = builtin_graph("yolov3_spp", 10)
        net = random_init(graph, seed=seed, dtype=np.float32)
        blob = save_weights(net)
        reloaded = load_weights(graph, blob, dtype=np.float32)
        if not _networks_equal(net, reloaded):
            return False, "full-graph parameters changed across save/load"
        blob2 = save_weights(reloaded)
        if blob2 != blob:
            return False, "full-graph bytes changed across load/save"
        _, total = net.count_parameters()
        if len(blob) != 20 + 4 * total:
            return False, "blob size disagrees with the parameter count"
        return True, f"1-layer and full graphs bitwise ({total} floats)"

    (ok, detail), seconds = _timed(run)
    return CheckResult("weights-roundtrip", ok, detail, "bitwise", seconds)


def check_decode_nms(seed: int = 0) -> CheckResult:
    """Score factorization, cell containment, NMS overlap and permutation."""

    def run():
        rng = np.random.default_rng(seed)
        raw = rng.normal(0.0, 1.0, size=(head_channels(3), 4, 4))
        head = HeadOutput(
            stride=32,
            raw=raw,
            anchors=[(30.0, 61.0), (62.0, 45.0), (59.0, 119.0)],
            ignore_thresh=0.5,
        )
        detections = decode(head, 0.0, IDENTITY_TRANSFORM, "img")
        if len(detections) != 3 * 16:
            return False, f"expected 48 decoded boxes, got {len(detections)}"
        shaped = raw.reshape(head.layout)
        cells = ((a, i, j) for a in range(3) for i in range(4) for j in range(4))
        for (a, i, j), det in zip(cells, detections):
            objectness = float(sigmoid(np.array([shaped[a, 4, i, j]]))[0])
            class_prob = float(
                sigmoid(np.array([shaped[a, 5 + det.class_index, i, j]]))[0]
            )
            if det.score != objectness * class_prob:
                return False, "score is not objectness * class probability"
            if not (j * 32 < det.box.x < (j + 1) * 32 and i * 32 < det.box.y < (i + 1) * 32):
                return False, "decoded center escaped its grid cell"

        boxes = [
            Detection(
                "img",
                int(rng.integers(3)),
                float(score),
                Box(*rng.uniform(20, 80, size=2), *rng.uniform(10, 40, size=2)),
            )
            for score in np.linspace(0.99, 0.05, 60) ** rng.uniform(0.7, 1.4)
        ]
        survivors = list(nms(Detections.of(boxes), 0.45))
        if survivors != oracles.nms_loop(boxes, 0.45):
            return False, "NMS survivors differ from the oracle loop"
        for a in survivors:
            for b in survivors:
                if a is not b and a.class_index == b.class_index and iou(a.box, b.box) > 0.45:
                    return False, "post-NMS same-class overlap above threshold"
        shuffled = list(boxes)
        rng.shuffle(shuffled)
        if set(nms(Detections.of(shuffled), 0.45)) != set(survivors):
            return False, "NMS survivors changed under input permutation"
        return True, "factorization exact; NMS equals oracle; overlaps bounded; permutation stable"

    (ok, detail), seconds = _timed(run)
    return CheckResult("decode-nms", ok, detail, "exact", seconds)


def check_toy_steps(steps: int) -> None:
    """The toy gate's step count, at least 1 (it compares the first and last
    loss): a ValidationError below it."""
    if steps < 1:
        raise ValidationError(f"the toy training gate needs at least one step, got {steps}")


def check_toy_training(seed: int = 0, steps: int = 200) -> CheckResult:
    """Loss after the accumulated-SGD run must be at most half the initial."""
    check_toy_steps(steps)

    def run():
        dataset = synthetic_dataset(num_images=32, size=64, num_classes=2, seed=seed)
        graph = toy_graph(num_classes=2, size=64)
        history = train_toy(dataset, graph, ToyTrainConfig(steps=steps, seed=seed))
        ratio = history[-1] / history[0]
        finite = all(np.isfinite(v) for v in history)
        return ratio, finite, history[0], history[-1]

    (ratio, finite, first, last), seconds = _timed(run)
    passed = finite and ratio <= 0.5 and seconds <= 300.0
    return CheckResult(
        "toy-training",
        passed,
        f"loss {first:.3f} -> {last:.3f} (ratio {ratio:.3f})",
        "ratio 0.5, 300s",
        seconds,
    )


def check_structural_deltas() -> CheckResult:
    """Graph-level facts: the SPP insertion diff, tiny's parameter deficit,
    and exact mAP reproduction through the prediction file format."""

    def run():
        plain = builtin_graph("yolov3", 10)
        spp = builtin_graph("yolov3_spp", 10)
        prefix, inserted = spp_insertion(plain, spp)
        block = spp.layers[prefix : prefix + inserted]
        kinds = [layer.kind for layer in block]
        if kinds != ["maxpool", "route", "maxpool", "route", "maxpool", "route", "convolutional"]:
            return False, f"unexpected insertion {kinds}"
        pool_sizes = [layer.attrs["size"] for layer in block if layer.kind == "maxpool"]
        if pool_sizes != [5, 9, 13]:
            return False, f"pool sizes {pool_sizes}"
        stripped = ModelGraph(
            net=dict(spp.net),
            layers=spp.layers[:prefix] + spp.layers[prefix + inserted :],
        )
        if not graph_equal(stripped, plain):
            return False, "removing the block does not recover the plain graph"

        _, n_plain = Network(plain).count_parameters()
        _, n_spp = Network(spp).count_parameters()
        fusion_conv = block[-1].attrs
        fusion_params = fusion_conv["filters"] * 2048 + 4 * fusion_conv["filters"]
        if n_spp - n_plain != fusion_params:
            return False, f"param delta {n_spp - n_plain} != {fusion_params}"

        _, n_tiny = Network(builtin_graph("yolov3_tiny", 10)).count_parameters()
        if not n_tiny < n_plain:
            return False, f"tiny {n_tiny} not smaller than {n_plain}"

        # a claimed mAP is reproduced exactly from its prediction dump
        truth = [
            GroundTruthBox(f"im{k}", k % 3, Box(20 + k, 20, 10, 12)) for k in range(6)
        ]
        perfect = [
            Detection(gt.image_id, gt.class_index, 1.0, gt.box) for gt in truth
        ]
        report = evaluate(parse_predictions(format_predictions(perfect)), truth, 3)
        if report.map_percent != 100.0 or report.precision != 1.0 or report.recall != 1.0:
            return False, f"oracle detector scored {report.map_percent}"
        return True, (
            f"SPP diff is the 5/9/13 block (+{fusion_params} params); "
            f"tiny {n_tiny} < yolov3 {n_plain}; dump round-trip mAP 100.0"
        )

    (ok, detail), seconds = _timed(run)
    return CheckResult("structural-deltas", ok, detail, "exact", seconds)


def run_all(seed: int = 0, fault: float = 0.0, toy_steps: int = 200) -> list[CheckResult]:
    """Execute every check; order mirrors the documented acceptance list."""
    return [
        check_gradient_fidelity(seed, fault=fault),
        check_spp_contract(seed),
        check_architecture_layout(),
        check_evaluator_oracle(seed),
        check_ap_fixture(),
        check_weights_roundtrip(seed),
        check_decode_nms(seed),
        check_toy_training(seed, steps=toy_steps),
        check_structural_deltas(),
    ]
