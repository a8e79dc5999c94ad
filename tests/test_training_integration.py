"""End-to-end gradient flow through Network.forward/backward and the loss.

The random-graph gradient checks seed the backward with a fixed projection;
this exercises the graph executor (route concat, shortcut add, pooling,
per-layer parameter slots) through Network.forward/backward with the same
loss-seeded backward pass the trainer uses.
Activations are kept smooth (sigmoid/linear) so central differences are
valid everywhere.
"""

import gc
import weakref

import numpy as np
import pytest

from yolokit.cfg import parse_cfg, toy_graph
from yolokit.detect import Box
from yolokit.evaluation import GroundTruth, GroundTruthBox
from yolokit.gradcheck import battery_nets, finite_difference, relative_errors
from yolokit.loss import assign_targets, total_loss
from yolokit.ops import GradTape
from yolokit.weights import random_init

BRANCHY_CFG = """\
[net]
width=64
height=64
channels=3

[convolutional]
filters=8
size=3
stride=2
pad=1
batch_normalize=1
activation=sigmoid

[convolutional]
filters=8
size=3
stride=1
pad=1
batch_normalize=1
activation=sigmoid

[shortcut]
from=-2

[convolutional]
filters=16
size=3
stride=2
pad=1
batch_normalize=1
activation=sigmoid

[maxpool]
size=3
stride=2
padding=1

[convolutional]
filters=8
size=1
stride=1
pad=1
activation=linear

[route]
layers=-1,-2

[convolutional]
filters=21
size=1
stride=1
pad=1
activation=linear

[yolo]
classes=2
num=3
mask=0,1,2
anchors=10,13,16,30,33,23
"""


def test_network_backward_matches_finite_differences_through_loss():
    graph = parse_cfg(BRANCHY_CFG)
    net = random_init(graph, seed=4)
    image = np.random.default_rng(4).uniform(0, 1, (3, 64, 64))
    truth = GroundTruth.of([
        GroundTruthBox("img", 0, Box(20.0, 24.0, 14.0, 18.0)),
        GroundTruthBox("img", 1, Box(48.0, 40.0, 26.0, 20.0)),
    ])

    net.zero_grads()
    tape = GradTape()
    heads = net.forward(image, tape)
    assert heads[0].stride == 8 and heads[0].grid == (8, 8)
    targets = assign_targets(truth, heads)
    assert targets[0].obj_mask.sum() == 2
    net.backward(tape, zip(heads, total_loss(heads, targets).grads))

    def objective():
        fresh = net.forward(image)
        return total_loss(fresh, targets).total

    convs = dict(net.conv_layers())
    # first conv (feeds everything), the post-pool conv, and the head conv
    for layer_index in (0, 5, 7):
        p = convs[layer_index]
        fd = finite_difference(objective, p.weights)
        rel = relative_errors(p.g_weights.ravel(), fd.ravel())
        assert rel.max() <= 1e-4, f"layer {layer_index}: max rel err {rel.max():.2e}"


def test_gradients_accumulate_across_images_like_the_trainer():
    graph = parse_cfg(BRANCHY_CFG)
    net = random_init(graph, seed=5)
    rng = np.random.default_rng(5)
    images = [rng.uniform(0, 1, (3, 64, 64)) for _ in range(2)]
    truth = GroundTruth.of([GroundTruthBox("img", 0, Box(30.0, 30.0, 16.0, 16.0))])

    def run(images_subset, zero_first=True):
        if zero_first:
            net.zero_grads()
        for image in images_subset:
            tape = GradTape()
            heads = net.forward(image, tape)
            targets = assign_targets(truth, heads)
            net.backward(tape, zip(heads, total_loss(heads, targets).grads))
        return {i: p.g_weights.copy() for i, p in net.conv_layers()}

    first = run(images[:1])
    second = run(images[1:])
    both = run(images)
    for i in first:
        np.testing.assert_allclose(both[i], first[i] + second[i], rtol=1e-12, atol=1e-15)


def test_gradients_accumulate_on_a_reused_tape_like_the_trainer():
    """One tape reset after each image, as the trainer runs it, gives the
    gradients of a fresh tape per image bit for bit, and never writes over a
    head map the caller still holds."""
    graph = parse_cfg(BRANCHY_CFG)
    net = random_init(graph, seed=5)
    rng = np.random.default_rng(5)
    images = [rng.uniform(0, 1, (3, 64, 64)) for _ in range(3)]
    truth = GroundTruth.of([GroundTruthBox("img", 0, Box(30.0, 30.0, 16.0, 16.0))])

    def run(reused):
        net.zero_grads()
        held = []
        for image in images:
            tape = reused or GradTape()
            heads = net.forward(image, tape)
            targets = assign_targets(truth, heads)
            net.backward(tape, zip(heads, total_loss(heads, targets).grads))
            if not held:  # the first image's maps, held across two resets
                held = [(head.raw, head.raw.tobytes()) for head in heads]
            del heads, targets
            if reused is not None:
                reused.reset()
        assert all(raw.tobytes() == saved for raw, saved in held)
        return [grad.tobytes() for _, p in net.conv_layers() for *_, grad in p.learnable()]

    assert run(GradTape()) == run(None)


def test_reused_tape_matches_fresh_tapes_on_random_graphs():
    # every op lends on a tape (pools, routes, upsamples, shortcuts); each
    # pass writes over the stale values of the one before
    for net, x, _ in battery_nets(seed=0):
        n = len(net.graph.layers)
        inputs = [x, 0.5 - x, 2.0 * x]

        def run(reused):
            net.zero_grads()
            for image in inputs:
                tape = reused or GradTape()
                out = net.run_layers(image, 0, n, tape)[n - 1]
                tape.backward([(out, np.cos(out))])
                del out
                if reused is not None:
                    reused.reset()
            return [grad.tobytes() for _, p in net.conv_layers() for *_, grad in p.learnable()]

        assert run(GradTape()) == run(None)


@pytest.mark.parametrize("graph_name", ["toy", "branchy", "battery"])
def test_a_dropped_tape_is_freed_without_the_cycle_collector(graph_name):
    if graph_name == "battery":
        nets = [(net, x) for net, x, _ in battery_nets(seed=0)]
    else:
        graph = toy_graph() if graph_name == "toy" else parse_cfg(BRANCHY_CFG)
        nets = [(random_init(graph, seed=6),
                 np.random.default_rng(6).uniform(0, 1, (3, 64, 64)))]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for net, x in nets:
            n = len(net.graph.layers)
            net.zero_grads()
            tape = GradTape()
            outputs = net.run_layers(x, 0, n, tape)
            tape.backward([(outputs[n - 1], np.ones_like(outputs[n - 1]))])
            refs = [weakref.ref(tape), weakref.ref(outputs[0])]
            del tape, outputs
            assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()
