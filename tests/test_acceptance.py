"""Acceptance gate: the full verification battery at its stated tolerances.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all,
or use ``yolokit verify`` for the same battery from the command line).
"""

import pytest

from yolokit import gradcheck, verify

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


def test_gradient_check_rejects_injected_fault():
    # the check's own battery on its first 3 graphs, the first with one
    # analytic gradient perturbed: its worst error must exceed the check's limit
    summary = gradcheck.run_gradient_fidelity(SEED, num_nets=3, fault=1e-2)
    assert summary.max_rel_error > verify.GRAD_TOLERANCE
    print(f"[PASS] gradient-fault-injection: check failed as required "
          f"(max rel err {summary.max_rel_error:.3e} > {verify.GRAD_TOLERANCE:g})")


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


@pytest.mark.slow
def test_toy_training_gate():
    # 200 accumulated steps (lr 0.01, momentum 0.9, batch 16) must at least
    # halve the loss on the seeded 2-class synthetic set, all finite, < 5 min.
    _assert(verify.check_toy_training(SEED, steps=200))


def test_structural_deltas_and_report_roundtrip():
    # pyramid-pooling graph differs from the plain one only by the inserted
    # block; the tiny variant has fewer parameters; a prediction dump
    # reproduces its mAP exactly through the file formats.
    _assert(verify.check_structural_deltas())
