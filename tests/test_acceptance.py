"""Acceptance gate: the full verification battery at its stated tolerances.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all,
or use ``yolokit verify`` for the same battery from the command line).
"""

import re

import pytest

from yolokit import oracles, ops, verify
from yolokit.loss import ToyTrainConfig

SEED = 0


def _assert(result):
    print(result.line())
    assert result.passed, result.line()


def test_gradient_fidelity():
    # >= 20 random graphs run by Network.run_layers plus the full loss, vs
    # central differences at step 1e-5 in double precision, max relative
    # error 1e-4, under 60 s; the graphs' forward vs oracles.graph_forward
    # within 1e-12 relative.
    _assert(verify.check_gradient_fidelity(SEED))


def test_gradient_check_rejects_injected_fault(monkeypatch):
    # a backward-kernel bug, every activation's gradient 1% too large: the
    # check must fail on its gradients while its forward still matches the
    # oracle
    grad = ops._activation_grad
    monkeypatch.setattr(ops, "_activation_grad",
                        lambda gy, y, activation: grad(gy, y, activation) * (1 + 1e-2))
    result = verify.check_gradient_fidelity(SEED)
    worst = float(re.search(r"max rel err (\S+) ", result.measured).group(1))
    forward = float(re.search(r"graph_forward (\S+)$", result.measured).group(1))
    assert not result.passed, result.line()
    assert worst > verify.GRAD_TOLERANCE and forward <= verify.FORWARD_TOLERANCE, result.line()
    print(f"[PASS] gradient-fault-injection: check failed as required ({result.line()})")


def test_spp_contract():
    # 100 random shapes: exact 4C x H x W, branch == window-scan oracle
    # bitwise, pooled branches dominate the identity branch pointwise.
    _assert(verify.check_spp_contract(SEED))


def test_architecture_layout():
    # 52 backbone convs; grids 32/16/8 at 256 and 80/40/20 at 640;
    # head channels 255 at 80 classes and 45 at 10. Exact.
    _assert(verify.check_architecture_layout())


def test_evaluator_oracle_equivalence():
    # 500 randomized micro-instances vs the brute-force threshold-enumeration
    # evaluator, within 1e-9, plus permutation invariance, under 60 s.
    _assert(verify.check_evaluator_oracle(SEED))


def test_ap_hand_fixture():
    # the TP, FP, TP curve over 2 boxes gives exactly 5/6 under
    # right-envelope interpolation (up to one float rounding step).
    _assert(verify.check_ap_fixture())


def test_weights_roundtrip():
    # save->load parameter-bitwise and load->save byte-identical, on a
    # 1-layer fixture and the full pyramid-pooling graph.
    _assert(verify.check_weights_roundtrip(SEED))


def test_decode_nms_properties():
    # score == objectness * class probability to machine precision;
    # post-NMS same-class IoU bounded; permutation-stable survivors.
    _assert(verify.check_decode_nms(SEED))


def test_decode_nms_rejects_overlapping_survivors(monkeypatch):
    # an NMS that keeps every box, in the oracle loop too: the survivors
    # still equal the loop's, so only the same-class overlap test can fail
    monkeypatch.setattr(verify, "nms", lambda detections, iou_threshold: detections)
    monkeypatch.setattr(oracles, "nms_loop", lambda detections, iou_threshold: list(detections))
    result = verify.check_decode_nms(SEED)
    assert not result.passed, result.line()
    assert result.measured == "post-NMS same-class overlap above threshold", result.line()


@pytest.mark.slow
def test_toy_training_gate():
    # 200 accumulated steps (lr 0.01, momentum 0.9, batch 16) must at least
    # halve the loss on the seeded 2-class synthetic set, all finite, < 5 min.
    _assert(verify.check_toy_training(SEED))


def test_toy_training_gate_runs_the_config_default_steps(monkeypatch):
    # the gate's step count is fixed: it trains on ToyTrainConfig's own 200
    # steps with the battery's seed, whatever the caller
    configs = []

    def trainer(dataset, graph, config):
        configs.append(config)
        return [1.0, 0.5]

    monkeypatch.setattr(verify, "train_toy", trainer)
    result = verify.check_toy_training(SEED)
    assert configs == [ToyTrainConfig(seed=SEED)] and configs[0].steps == 200
    assert result.passed and result.measured == "loss 1.000 -> 0.500 (ratio 0.500)"


def test_structural_deltas_and_report_roundtrip():
    # pyramid-pooling graph differs from the plain one only by the inserted
    # block; the tiny variant has fewer parameters; a prediction dump
    # reproduces its mAP exactly through the file formats.
    _assert(verify.check_structural_deltas())
