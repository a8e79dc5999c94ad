"""The gradient checker itself: sensitivity, random-graph generation, metrics."""

import numpy as np
import pytest

from yolokit import ops
from yolokit.gradcheck import (
    battery_nets,
    check_micro_net,
    forward_error,
    random_micro_net,
    relative_errors,
    run_gradient_fidelity,
)
from yolokit.verify import FORWARD_TOLERANCE, GRAD_TOLERANCE


def test_battery_passes_on_another_seed():
    summary = run_gradient_fidelity(seed=123)
    assert summary.max_rel_error <= GRAD_TOLERANCE
    assert summary.checked > 0


def test_injected_fault_is_detected(monkeypatch):
    clean = run_gradient_fidelity(seed=7)
    # a backward-kernel bug: every activation's gradient 1% too large
    grad = ops._activation_grad
    monkeypatch.setattr(ops, "_activation_grad",
                        lambda gy, y, activation: grad(gy, y, activation) * (1 + 1e-2))
    faulty = run_gradient_fidelity(seed=7)
    assert clean.max_rel_error <= GRAD_TOLERANCE
    assert faulty.max_rel_error > GRAD_TOLERANCE
    assert faulty.forward_rel_error <= FORWARD_TOLERANCE


def test_shortcut_source_fault_is_detected(monkeypatch):
    add = ops.shortcut_add
    monkeypatch.setattr(ops, "shortcut_add",
                        lambda x, y, tape=None, out=None: add(x, x, tape, out=out))
    summary = run_gradient_fidelity(seed=0)
    # the tape differentiates the faulty forward it recorded, so only the
    # oracle forward can see the fault
    assert summary.max_rel_error <= GRAD_TOLERANCE
    assert summary.forward_rel_error > FORWARD_TOLERANCE


def test_route_order_fault_is_detected(monkeypatch):
    concat = ops.concat_channels
    monkeypatch.setattr(ops, "concat_channels",
                        lambda inputs, tape=None: concat(inputs[::-1], tape))
    summary = run_gradient_fidelity(seed=0)
    assert summary.max_rel_error <= GRAD_TOLERANCE
    assert summary.forward_rel_error > FORWARD_TOLERANCE


def test_inference_forward_matches_oracle():
    # no tape: outputs are freed after their last reader and shortcuts add
    # in place, unlike the taped runs the gradient check compares
    for net, x, _ in battery_nets(seed=0):
        n = len(net.graph.layers)
        outputs = net.run_layers(x, 0, n)
        assert list(outputs) == [n - 1]
        assert forward_error(net, outputs, x) <= FORWARD_TOLERANCE


def _layer_features(graph):
    features = set()
    for layer in graph.layers:
        a = layer.attrs
        if layer.kind == "convolutional":
            features |= {"bn conv" if a["batch_normalize"] else "plain conv", a["activation"]}
        elif layer.kind == "maxpool" and a["padding"]:
            features.add("padded maxpool")
        elif layer.kind == "route" and len(a["layers"]) == 2:
            features.add("two-reference route")
        elif layer.kind in ("shortcut", "upsample"):
            features.add(layer.kind)
    return features


@pytest.mark.parametrize("seed", range(5))
def test_battery_covers_every_dispatch(seed):
    seen = set()
    for net, _, _ in battery_nets(seed):
        seen |= _layer_features(net.graph)
    assert seen == {
        "shortcut", "two-reference route", "padded maxpool", "upsample",
        "bn conv", "plain conv", "linear", "leaky", "sigmoid",
    }


def test_micro_nets_have_parameters_and_run():
    rng = np.random.default_rng(5)
    for _ in range(10):
        net, x = random_micro_net(rng)
        assert net.parameterized and list(net.conv_layers())
        result = check_micro_net(net, x, rng)
        assert result.checked > 0
        assert result.forward_rel_error <= FORWARD_TOLERANCE


def test_relative_error_floor_suppresses_roundoff():
    analytic = np.array([1.0, 1e-12])
    numeric = np.array([1.0, 3e-12])  # absolute noise far below the scale
    # naive |a-b|/max(|a|,|b|) would report ~0.67 here; the floor keeps it tiny
    assert relative_errors(analytic, numeric).max() < 1e-8


def test_relative_error_catches_disagreement():
    analytic = np.array([1.0, 0.5])
    numeric = np.array([1.0, 0.55])
    assert relative_errors(analytic, numeric).max() > 0.05
