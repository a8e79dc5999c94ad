"""Finite-difference gradient checking on small random graphs.

Random graphs (a few convs, pools, upsamples, shortcuts and routes) are
rendered to definition text, parsed back, bound to random parameters and run
forward by ``Network.run_layers`` onto a fixed random projection; the tape's
analytic parameter gradients are then compared against central finite
differences. Each graph's forward is also compared with the independent
interpreter ``oracles.graph_forward``: a finite-difference check differences
the same forward the tape recorded, so it cannot see a forward that reads
the wrong layer.

Two well-known caveats of finite differencing are handled explicitly:

* kinks: if a +/-h probe flips a leaky-activation sign or a pool argmax, the
  difference quotient no longer estimates the derivative. Probes whose
  routing signature changes between the two evaluations are excluded from
  the comparison (they are counted and reported).
* tiny gradients: entries are compared with a floored relative error,
  ``|a - b| / max(|a|, |b|, 0.001 * max(1, G))`` with G the largest gradient
  magnitude in the network, so roundoff noise on near-zero entries does not
  masquerade as disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import ops, oracles
from .cfg import LayerSpec, ModelGraph, parse_cfg, render_cfg, shape_check
from .network import Network

DEFAULT_STEP = 1e-5  # the central difference's half-width
MICRO_NET_MAX_LAYERS = 5
BATTERY_GRAPHS = 20  # random graphs the gradient check runs


def _routing_signature(graph: ModelGraph, outputs: dict[int, np.ndarray]):
    """Discrete decisions the forward pass made: leaky signs, pool argmaxes."""
    signature = []
    for i, layer in enumerate(graph.layers):
        a = layer.attrs
        if layer.kind == "convolutional" and a["activation"] == "leaky":
            signature.append(outputs[i] >= 0)
        elif layer.kind == "maxpool":
            k, s, pad = a["size"], a["stride"], a["padding"]
            padded = np.pad(outputs[i - 1], ((0, 0), (pad, pad), (pad, pad)),
                            constant_values=-np.inf)
            windows = sliding_window_view(padded, (k, k), axis=(1, 2))[:, ::s, ::s]
            signature.append(windows.reshape(*windows.shape[:3], -1).argmax(axis=3))
    return signature


def random_micro_net(rng: np.random.Generator) -> tuple[Network, np.ndarray]:
    """Build a random graph of at most ``MICRO_NET_MAX_LAYERS`` layers, bound
    to random parameters, plus an input.

    Shapes come from ``shape_check`` on the partial graph. Shortcut and
    route references name earlier layer outputs (a graph cannot reference
    its input), absolute or relative at random; the graph goes through
    ``render_cfg``/``parse_cfg`` before it is bound.
    """
    c = int(rng.integers(2, 5))
    side = int(rng.integers(6, 11))
    graph = ModelGraph(net={"width": side, "height": side, "channels": c})
    x = rng.uniform(-1.0, 1.0, size=(c, side, side))

    n_layers = int(rng.integers(2, MICRO_NET_MAX_LAYERS + 1))
    for i in range(n_layers):
        shapes = shape_check(graph, side, side)
        _, cur_h, cur_w = shapes[-1] if shapes else (c, side, side)
        choices = ["conv", "conv", "conv"]
        if cur_h >= 3 and cur_w >= 3:
            choices.append("maxpool")
        if cur_h <= 12:
            choices.append("upsample")
        same_shape = [j for j, s in enumerate(shapes[:-1]) if s == shapes[-1]]
        if same_shape:
            choices += ["shortcut", "shortcut"]
        same_spatial = [j for j, s in enumerate(shapes[:-1]) if s[1:] == shapes[-1][1:]]
        if same_spatial:
            choices += ["route", "route"]
        # always have at least one parameterized layer to check
        kind = "conv" if i == 0 else choices[int(rng.integers(len(choices)))]

        if kind == "conv":
            # half the convs take the width of an earlier output of this
            # size, so that stride-1 ones make shortcut partners
            widths = [s[0] for s in shapes if s[1:] == (cur_h, cur_w)]
            if widths and rng.integers(2):
                filters = int(rng.choice(widths))
            else:
                filters = int(rng.integers(2, 6))
            layer = LayerSpec("convolutional", {
                "filters": filters,
                "size": int(rng.choice([1, 3])),
                "stride": int(rng.choice([1, 1, 2])) if min(cur_h, cur_w) >= 4 else 1,
                "batch_normalize": int(rng.integers(2)),
                "activation": str(rng.choice(["linear", "leaky", "leaky", "sigmoid"])),
            })
        elif kind == "maxpool":
            size = int(rng.choice([2, 3]))
            layer = LayerSpec("maxpool", {
                "size": size, "stride": int(rng.choice([1, 2])), "padding": int(rng.integers(size)),
            })
        elif kind == "upsample":
            layer = LayerSpec("upsample")
        elif kind == "shortcut":
            j = int(rng.choice(same_shape))
            layer = LayerSpec("shortcut", {"from": int(rng.choice([j, j - i]))})
        else:
            j = int(rng.choice(same_spatial))
            layer = LayerSpec("route", {"layers": [-1, int(rng.choice([j, j - i]))]})
        graph.layers.append(layer)

    net = Network(parse_cfg(render_cfg(graph)))
    for _, p in net.conv_layers():
        fan_in = p.in_channels * p.size * p.size
        p.weights = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=p.stored()[-1][1])
        if p.has_batchnorm:
            p.bn_gamma = rng.uniform(0.5, 1.5, p.filters)
            p.bn_beta = rng.normal(0.0, 0.3, p.filters)
            p.bn_mean = rng.normal(0.0, 0.3, p.filters)
            p.bn_var = rng.uniform(0.5, 2.0, p.filters)
        else:
            p.biases = rng.normal(0.0, 0.3, p.filters)
        p.validate()
    return net, x


def battery_nets(seed: int):
    """Yield the battery's ``BATTERY_GRAPHS`` graphs for ``seed``: (Network,
    input, rng).

    Graph ``k`` is drawn from its own rng, seeded by (seed, k), which the
    check then draws its projection from; so every graph is the same
    whatever ran before it.
    """
    for index in range(BATTERY_GRAPHS):
        rng = np.random.default_rng([seed, index])
        net, x = random_micro_net(rng)
        yield net, x, rng


def forward_error(net: Network, outputs: dict[int, np.ndarray], x: np.ndarray) -> float:
    """Largest relative difference of any layer output in ``outputs`` from
    ``oracles.graph_forward``: max |a - b| / max |b| per layer, infinite
    when the shapes differ."""
    worst = 0.0
    for i, ref in enumerate(oracles.graph_forward(net.graph, net.params, x)):
        if i in outputs and outputs[i].shape != ref.shape:
            return float("inf")
        if i in outputs:
            worst = max(worst, float(np.abs(outputs[i] - ref).max() / np.abs(ref).max()))
    return worst


@dataclass
class GradCheckResult:
    max_rel_error: float
    checked: int
    skipped: int  # probes excluded because they crossed a kink
    forward_rel_error: float  # run_layers outputs vs oracles.graph_forward


def check_micro_net(net: Network, x: np.ndarray, rng: np.random.Generator) -> GradCheckResult:
    """Compare tape gradients of sum(projection * output) against central FD,
    and every layer output against ``oracles.graph_forward``."""
    n = len(net.graph.layers)
    net.zero_grads()
    tape = ops.GradTape()
    outputs = net.run_layers(x, 0, n, tape)
    forward_rel_error = forward_error(net, outputs, x)
    projection = rng.uniform(-1.0, 1.0, size=outputs[n - 1].shape)
    tape.backward([(outputs[n - 1], projection)])

    learnable = [entry for _, p in net.conv_layers() for entry in p.learnable()]
    signatures = []

    def objective():
        # a tape keeps every output, which the routing signature reads
        probe = net.run_layers(x, 0, n, ops.GradTape())
        signatures.append(_routing_signature(net.graph, probe))
        return float(np.sum(probe[n - 1] * projection))

    analytic, numeric, valid = [], [], []
    for _name, value, grad in learnable:
        signatures.clear()
        numeric.append(finite_difference(objective, value).ravel())
        analytic.append(grad.ravel())
        # finite_difference probes +h then -h for each entry in turn
        valid.extend(all(map(np.array_equal, plus, minus))
                     for plus, minus in zip(signatures[::2], signatures[1::2]))

    valid = np.array(valid)
    rel = relative_errors(np.concatenate(analytic), np.concatenate(numeric))
    max_err = float(rel[valid].max()) if valid.any() else 0.0
    return GradCheckResult(max_err, int(valid.sum()), int((~valid).sum()), forward_rel_error)


def relative_errors(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    """Elementwise floored relative error (see module docstring)."""
    scale = float(max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0)))
    floor = 1e-3 * max(1.0, scale)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return np.abs(analytic - numeric) / denom


def finite_difference(fn, array: np.ndarray) -> np.ndarray:
    """Central finite differences of a scalar function w.r.t. every entry,
    with step ``DEFAULT_STEP``."""
    flat = array.ravel()
    grad = np.zeros(flat.size)
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + DEFAULT_STEP
        f_plus = fn()
        flat[idx] = orig - DEFAULT_STEP
        f_minus = fn()
        flat[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * DEFAULT_STEP)
    return grad.reshape(array.shape)


def run_gradient_fidelity(seed: int = 0) -> GradCheckResult:
    """Gradient-check the battery's random graphs; aggregate the worst."""
    worst = forward_worst = 0.0
    checked = skipped = 0
    for net, x, rng in battery_nets(seed):
        result = check_micro_net(net, x, rng)
        worst = max(worst, result.max_rel_error)
        forward_worst = max(forward_worst, result.forward_rel_error)
        checked += result.checked
        skipped += result.skipped
    return GradCheckResult(worst, checked, skipped, forward_worst)
