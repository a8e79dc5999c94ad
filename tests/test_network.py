"""Forward-pass behavior: head geometry, SPP block, freezing, determinism, counts."""

import numpy as np
import pytest

from yolokit import network, ops
from yolokit.cfg import builtin_graph, parse_cfg, toy_graph
from yolokit.detect import Box, letterbox
from yolokit.errors import ShapeError, UsageError
from yolokit.evaluation import GroundTruth, GroundTruthBox
from yolokit.loss import assign_targets, total_loss
from yolokit.network import Network
from yolokit.oracles import maxpool_scan
from yolokit.verify import spp_block_forward
from yolokit.weights import load_weights, random_init


@pytest.fixture(scope="module")
def tiny_net():
    return random_init(builtin_graph("yolov3_tiny", 10), seed=0, dtype=np.float32)


class TestForward:
    # each builtin's heads coarse to fine: strides and the mask's (w, h) priors
    COCO_HEADS = [
        (32, [(116.0, 90.0), (156.0, 198.0), (373.0, 326.0)]),
        (16, [(30.0, 61.0), (62.0, 45.0), (59.0, 119.0)]),
        (8, [(10.0, 13.0), (16.0, 30.0), (33.0, 23.0)]),
    ]
    TINY_HEADS = [
        (32, [(81.0, 82.0), (135.0, 169.0), (344.0, 319.0)]),
        (16, [(10.0, 14.0), (23.0, 27.0), (37.0, 58.0)]),
    ]

    @pytest.mark.parametrize("variant, size, expected", [
        ("yolov3", 64, COCO_HEADS), ("yolov3_spp", 64, COCO_HEADS),
        ("yolov3_tiny", 320, TINY_HEADS),
    ])
    def test_builtin_heads(self, variant, size, expected):
        net = random_init(builtin_graph(variant, 10), seed=0, dtype=np.float32)
        rng = np.random.default_rng(0)
        for side in (size, 2 * size):  # a second size keeps the order
            heads = net.forward(rng.uniform(0, 1, (3, side, side)).astype(np.float32))
            assert [(h.stride, h.anchors) for h in heads] == expected
            assert [h.grid for h in heads] == [(side // s, side // s) for s, _ in expected]
            assert all(h.ignore_thresh == 0.5 and h.raw.shape[0] == 45 for h in heads)
            assert all(np.isfinite(h.raw).all() for h in heads)

    def test_head_geometry_is_read_off_the_raw_map(self):
        head = network.HeadOutput(16, np.zeros((3 * (5 + 4), 3, 5)), [(1.0, 1.0)] * 3, 0.5)
        assert head.grid == (3, 5) and head.num_classes == 4
        # not a multiple of 3; no class left; below one class and below none
        for shape in ((20, 3, 5), (15, 3, 5), (3, 3, 5), (0, 3, 5), (27, 3)):
            with pytest.raises(ShapeError, match="head map"):
                network.HeadOutput(16, np.zeros(shape), [(1.0, 1.0)] * 3, 0.5)

    def test_grid_doubles_with_input(self):
        net = random_init(toy_graph(), seed=1)
        rng = np.random.default_rng(1)
        small = net.forward(rng.uniform(0, 1, (3, 64, 64)))
        large = net.forward(rng.uniform(0, 1, (3, 128, 128)))
        assert small[0].grid == (8, 8)
        assert large[0].grid == (16, 16)
        assert small[0].stride == large[0].stride == 8

    def test_rectangular_input(self):
        net = random_init(toy_graph(), seed=1)
        heads = net.forward(np.zeros((3, 64, 96)))
        assert heads[0].grid == (8, 12)

    def test_forward_determinism_bitwise(self):
        net = random_init(toy_graph(), seed=2)
        image = np.random.default_rng(2).uniform(0, 1, (3, 64, 64))
        a = net.forward(image)[0].raw
        b = net.forward(image)[0].raw
        assert np.array_equal(a, b)

    def test_unparameterized_network_rejected(self):
        net = Network(toy_graph())
        with pytest.raises(UsageError):
            net.forward(np.zeros((3, 64, 64)))

    def test_indivisible_input_rejected(self, tiny_net):
        with pytest.raises(ShapeError):
            tiny_net.forward(np.zeros((3, 100, 100), dtype=np.float32))

    def test_wrong_channel_count_rejected(self, tiny_net):
        with pytest.raises(ShapeError):
            tiny_net.forward(np.zeros((1, 64, 64), dtype=np.float32))

    @pytest.mark.parametrize("net_dtype, image_dtype", [
        (np.float32, np.float64), (np.float64, np.float32),
    ])
    def test_image_in_another_float_dtype_rejected(self, net_dtype, image_dtype):
        # such an image was once cast to the net's dtype on every call
        net = random_init(toy_graph(), seed=1, dtype=net_dtype)
        image = np.zeros((3, 64, 64), dtype=image_dtype)
        with pytest.raises(ShapeError, match=f"image is {np.dtype(image_dtype)}, the net "
                                             f"runs in {np.dtype(net_dtype)}"):
            net.forward(image)
        assert net.forward(image.astype(net_dtype))[0].raw.dtype == net_dtype

    @pytest.mark.slow
    def test_spp_model_full_forward_at_640(self):
        net = random_init(builtin_graph("yolov3_spp", 10), seed=0, dtype=np.float32)
        image = np.random.default_rng(9).uniform(0, 1, (3, 640, 640)).astype(np.float32)
        heads = net.forward(image)
        assert [h.grid for h in heads] == [(20, 20), (40, 40), (80, 80)]
        assert [h.stride for h in heads] == [32, 16, 8]
        assert all(h.raw.shape[0] == 45 for h in heads)
        assert all(np.isfinite(h.raw).all() for h in heads)

    def test_zero_weights_give_finite_constant_heads(self):
        net = random_init(toy_graph(), seed=3)
        for _, p in net.conv_layers():
            p.weights[:] = 0
        head = net.forward(np.random.default_rng(3).uniform(0, 1, (3, 64, 64)))[0]
        assert np.isfinite(head.raw).all()
        # with zero weights every spatial position sees the same value
        per_channel_spread = np.ptp(head.raw.reshape(head.raw.shape[0], -1), axis=1)
        assert np.all(per_channel_spread == 0)


class TestInferenceForward:
    """Without a tape, outputs die after their last reader and a dead
    shortcut input takes the sum; with one, every output is kept."""

    @pytest.mark.parametrize("variant", ["yolov3_spp", "yolov3_tiny"])
    def test_heads_equal_recording_forward(self, variant):
        net = random_init(builtin_graph(variant, 2), seed=8)
        image = np.random.default_rng(8).uniform(0, 1, (3, 64, 64))
        before = image.copy()
        plain = net.forward(image)
        recorded = net.forward(image, ops.GradTape())
        assert [h.grid for h in plain] == [h.grid for h in recorded]
        for got, want in zip(plain, recorded):
            assert np.array_equal(got.raw, want.raw)
        assert np.array_equal(image, before)

    @pytest.mark.parametrize("variant", ["yolov3_spp", "yolov3_tiny"])
    def test_run_layers_keeps_last_output_and_heads(self, variant):
        graph = builtin_graph(variant, 2)
        net = random_init(graph, seed=9)
        image = np.random.default_rng(9).uniform(0, 1, (3, 64, 64))
        heads = {i for i, layer in enumerate(graph.layers) if layer.kind == "yolo"}
        n = len(graph.layers)
        everything = net.run_layers(image, 0, n, ops.GradTape())
        assert set(everything) == set(range(-1, n))
        for stop in (n, max(heads) - 1, min(heads) + 3):
            outputs = net.run_layers(image, 0, stop)
            kept = {i for i in heads if i < stop} | {stop - 1}
            assert kept <= set(outputs)
            if stop == n:
                assert set(outputs) == kept
            for i in kept:
                assert np.array_equal(outputs[i], everything[i])

    def test_live_shortcut_input_not_overwritten(self):
        # layer 1 feeds the shortcut and, after it, the route: it must not
        # take the sum in place
        graph = parse_cfg(
            "[net]\nwidth=32\nheight=32\nchannels=3\n"
            "[convolutional]\nfilters=4\nsize=1\nactivation=leaky\n"
            "[convolutional]\nfilters=4\nsize=3\npad=1\nactivation=leaky\n"
            "[shortcut]\nfrom=-2\n"
            "[route]\nlayers=-1,-2\n"
            "[convolutional]\nfilters=4\nsize=1\nactivation=linear\n"
        )
        net = random_init(graph, seed=10)
        image = np.random.default_rng(10).uniform(0, 1, (3, 32, 32))
        plain = net.run_layers(image, 0, 5)[4]
        recorded = net.run_layers(image, 0, 5, ops.GradTape())[4]
        assert np.array_equal(plain, recorded)

    def test_caller_input_not_overwritten(self):
        # the shortcut's input is the caller's array, dead in the graph
        graph = parse_cfg(
            "[net]\nwidth=32\nheight=32\nchannels=3\n"
            "[convolutional]\nfilters=4\nsize=1\nactivation=leaky\n"
            "[shortcut]\nfrom=-1\n"
            "[convolutional]\nfilters=4\nsize=1\nactivation=linear\n"
        )
        net = random_init(graph, seed=11)
        x = np.random.default_rng(11).uniform(0, 1, (4, 32, 32))
        before = x.copy()
        out = net.run_layers(x, 1, 3)[2]
        assert np.array_equal(x, before)
        assert np.array_equal(out, net.run_layers(before, 1, 3, ops.GradTape())[2])


FIRST_1X1_CFG = """\
[net]
width=32
height=32
channels=3

[convolutional]
filters=6
size=1
stride=1
batch_normalize=1
activation=leaky

[convolutional]
filters=8
size=3
stride=2
pad=1
activation=leaky

[convolutional]
filters=8
size=3
stride=2
pad=1
activation=leaky

[convolutional]
filters=21
size=3
stride=2
pad=1
activation=linear

[yolo]
classes=2
num=3
mask=0,1,2
anchors=10,13,16,30,33,23
"""


class TestTrainingPass:
    """The image is a constant on the tape: no image gradient is computed,
    and the parameter gradients keep every bit."""

    @pytest.mark.parametrize("variant", ["toy", "first_1x1"])
    def test_parameter_gradients_equal_a_pass_with_image_gradient(self, variant):
        graph = toy_graph() if variant == "toy" else parse_cfg(FIRST_1X1_CFG)
        size = graph.input_width
        image = np.random.default_rng(12).uniform(0, 1, (3, size, size))
        grads = []
        for through_forward in (True, False):
            net = random_init(graph, seed=12)
            net.zero_grads()
            tape = ops.GradTape()
            if through_forward:
                head = net.forward(image, tape)[0].raw
            else:  # the same layers, the image not marked constant
                head = net.run_layers(image, 0, len(graph.layers), tape)[len(graph.layers) - 1]
            seed = np.random.default_rng(13).normal(0, 1, head.shape)
            tape.backward([(head, seed)])
            assert (tape.grad(image) is None) == through_forward
            grads.append([g.copy() for _, p in net.conv_layers() for _, _, g in p.learnable()])
        assert len(grads[0]) == len(grads[1]) > 0
        for got, want in zip(*grads):
            assert np.array_equal(got, want)

    def test_image_gradient_none_after_network_backward(self):
        net = random_init(toy_graph(), seed=14)
        image = np.random.default_rng(14).uniform(0, 1, (3, 64, 64))
        before = image.copy()
        net.zero_grads()
        tape = ops.GradTape()
        heads = net.forward(image, tape)
        truth = GroundTruth.of([GroundTruthBox("i", 0, Box(20.0, 30.0, 16.0, 12.0))])
        targets = assign_targets(truth, heads)
        net.backward(tape, zip(heads, total_loss(heads, targets).grads))
        assert tape.grad(image) is None
        assert np.array_equal(image, before)
        assert all(p.g_weights.any() for _, p in net.conv_layers())


# two heads, the stride-8 one first in layer order; each head's first anchor
# width is its layer index
TWO_HEAD_CFG = """\
[net]
width=64
height=64
channels=3

[convolutional]
filters=4
size=3
stride=2

[convolutional]
filters=4
size=3
stride=2

[convolutional]
filters=4
size=3
stride=2

[convolutional]
filters=21
size=1

[yolo]
classes=2
mask=0,1,2
anchors=4,4,5,5,6,6

[route]
layers=-3

[convolutional]
filters=4
size=3
stride=2

[convolutional]
filters=21
size=1

[yolo]
classes=2
mask=0,1,2
anchors=8,8,9,9,10,10
"""


class TestInputSize:
    """The size rule is the graph's own heads' (shape_check), checked once
    per input size."""

    @pytest.mark.parametrize("size,grid", [(40, 5), (48, 6), (64, 8)])
    def test_toy_runs_at_head_stride_multiples(self, size, grid):
        net = random_init(toy_graph(), seed=15)
        heads = net.forward(np.random.default_rng(15).uniform(0, 1, (3, size, size)))
        assert heads[0].grid == (grid, grid) and heads[0].stride == 8

    def test_toy_rejects_size_off_its_stride(self):
        net = random_init(toy_graph(), seed=15)
        with pytest.raises(ShapeError, match="stride"):
            net.forward(np.zeros((3, 44, 44)))

    @pytest.mark.parametrize("size", [100, 40, 48])
    def test_yolov3_rejects_sizes_its_heads_reject(self, size):
        net = Network(builtin_graph("yolov3", 10))
        for _, p in net.conv_layers():  # forward needs parameters, not trained ones
            p.weights = np.zeros(p.stored()[-1][1])
        with pytest.raises(ShapeError, match="stride"):
            net.forward(np.zeros((3, size, size)))

    def test_heads_ordered_at_each_size(self):
        # at 8 px both heads have one cell, stride 8: a tie keeps layer order
        net = random_init(parse_cfg(TWO_HEAD_CFG), seed=17)
        for size, layers, strides in ((64, [8, 4], [16, 8]), (8, [4, 8], [8, 8]),
                                      (64, [8, 4], [16, 8])):
            heads = net.forward(np.zeros((3, size, size)))
            assert [h.stride for h in heads] == strides
            assert [h.anchors[0][0] for h in heads] == [float(i) for i in layers]

    def test_each_size_checked_once(self, monkeypatch):
        calls = []
        real = network.shape_check

        def counting(graph, width, height):
            calls.append((width, height))
            return real(graph, width, height)

        monkeypatch.setattr(network, "shape_check", counting)
        net = random_init(toy_graph(), seed=16)
        assert calls == [(64, 64)]  # the constructor's check covers the graph's size
        for size in (64, 48, 64, 48, 64):
            net.forward(np.zeros((3, size, size)))
        with pytest.raises(ShapeError):
            net.forward(np.zeros((3, 44, 44)))
        with pytest.raises(ShapeError):
            net.forward(np.zeros((3, 44, 44)))  # a failed size is checked again
        assert calls == [(64, 64), (48, 48), (44, 44), (44, 44)]


class TestSpp:
    """The builtin yolov3_spp graph's pool/route block, in darknet order
    [pool13, pool9, pool5, x]."""

    def test_concat_arithmetic(self):
        x = np.random.default_rng(4).normal(0, 1, (512, 20, 20))
        assert spp_block_forward(x).shape == (2048, 20, 20)

    def test_constant_input_four_fold_copy(self):
        x = np.full((3, 9, 9), 1.5)
        out = spp_block_forward(x)
        for branch in range(4):
            assert np.array_equal(out[branch * 3 : (branch + 1) * 3], x)

    def test_center_peak_spread(self):
        x = np.zeros((1, 13, 13))
        x[0, 6, 6] = 5.0
        out = spp_block_forward(x)
        assert np.array_equal(out[3:], x)
        for branch, k in ((0, 13), (1, 9), (2, 5)):
            got = out[branch : branch + 1]
            want = maxpool_scan(x, k, 1, (k - 1) // 2)
            assert np.array_equal(got, want)
            spread = np.count_nonzero(got == 5.0)
            assert spread == k * k

    def test_shape_preserved_and_dominant_on_random_shapes(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            c = int(rng.integers(1, 8))
            h = int(rng.integers(1, 20))
            w = int(rng.integers(1, 20))
            x = rng.normal(0, 1, (c, h, w))
            out = spp_block_forward(x)
            assert out.shape == (4 * c, h, w)
            assert np.array_equal(out[3 * c :], x)
            for branch in range(3):
                assert np.all(out[branch * c : (branch + 1) * c] >= x)


def _tiny_with_random_batchnorm(dtype):
    net = random_init(builtin_graph("yolov3_tiny", 10), seed=6, dtype=dtype)
    rng = np.random.default_rng(6)
    for _, p in net.conv_layers():
        if p.has_batchnorm:
            f = p.filters
            p.bn_gamma = rng.uniform(0.5, 1.5, f).astype(dtype)
            p.bn_beta = rng.normal(0, 0.3, f).astype(dtype)
            p.bn_mean = rng.normal(0, 0.3, f).astype(dtype)
            p.bn_var = rng.uniform(0.5, 2.0, f).astype(dtype)
    return net


class TestFreeze:
    @pytest.mark.parametrize("dtype,tolerance", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_frozen_heads_match_unfrozen(self, dtype, tolerance):
        net = _tiny_with_random_batchnorm(dtype)
        image = np.random.default_rng(7).uniform(0, 1, (3, 64, 64)).astype(dtype)
        unfrozen = [h.raw.copy() for h in net.forward(image)]
        net.freeze()
        frozen = [h.raw for h in net.forward(image)]
        for want, got in zip(unfrozen, frozen):
            assert got.dtype == dtype
            assert np.abs(got - want).max() / np.abs(want).max() <= tolerance

    def test_no_batchnorm_left(self):
        net = _tiny_with_random_batchnorm(np.float64)
        assert any(p.has_batchnorm for _, p in net.conv_layers())
        net.freeze()
        for _, p in net.conv_layers():
            assert not p.has_batchnorm
            assert p.bn_gamma is None and p.bn_beta is None
            assert p.bn_mean is None and p.bn_var is None
            assert p.biases.shape == (p.filters,)

    def test_unparameterized_network_rejected(self):
        with pytest.raises(UsageError):
            Network(toy_graph()).freeze()

    @pytest.mark.parametrize("layer,name,value,message", [
        (2, "bn_var", np.r_[np.ones(15), 0.0], "^layer 2: non-positive batch-norm variance$"),
        (0, "bn_var", -np.ones(8), "^layer 0: non-positive batch-norm variance$"),
        (4, "biases", np.zeros(22), r"^layer 4: biases must be shaped \(21,\), got \(22,\)$"),
        (1, "bn_gamma", np.ones(8), r"^layer 1: bn_gamma must be shaped \(16,\), got \(8,\)$"),
    ])
    def test_arrays_swapped_after_binding_are_refused_before_any_fold(self, layer, name,
                                                                       value, message):
        net = random_init(toy_graph(), seed=3)
        weights = [p.weights.copy() for _, p in net.conv_layers()]
        setattr(net.params[layer], name, value)
        with pytest.raises(ShapeError, match=message):
            net.freeze()
        assert [p.has_batchnorm for _, p in net.conv_layers()] == [True] * 4 + [False]
        assert all(np.array_equal(p.weights, w) for (_, p), w in zip(net.conv_layers(), weights))

    def test_weights_swapped_after_binding_fail_the_forward(self):
        # a call checks the weights' shape and the input width, not the
        # other arrays
        net = random_init(toy_graph(), seed=3)
        net.params[1].weights = np.zeros((16, 4, 3, 3))
        with pytest.raises(ShapeError, match=r"^weights must be shaped \(16, 8, 3, 3\), "
                                             r"got \(16, 4, 3, 3\)$"):
            net.forward(np.zeros((3, 64, 64)))


class TestDtype:
    @pytest.mark.parametrize("dtype", [np.int64, int, np.float16, np.uint8])
    def test_only_float32_and_float64_accepted(self, dtype):
        message = f"^network dtype must be float32 or float64, got {np.dtype(dtype)}$"
        with pytest.raises(UsageError, match=message):
            Network(toy_graph(), dtype=dtype)
        with pytest.raises(UsageError, match=message):
            random_init(toy_graph(), seed=0, dtype=dtype)
        with pytest.raises(UsageError, match=message):  # before the file is read
            load_weights(toy_graph(), b"", dtype=dtype)

    @pytest.mark.parametrize("dtype,got", [(None, "None"), ("foo", "'foo'")])
    def test_a_dtype_numpy_would_resolve_or_refuse_is_a_usage_error(self, dtype, got):
        # numpy reads None as float64 and raises its own TypeError on "foo"
        for make, name in ((lambda: Network(toy_graph(), dtype=dtype), "network"),
                           (lambda: random_init(toy_graph(), seed=0, dtype=dtype), "network"),
                           (lambda: letterbox(np.zeros((3, 4, 4), np.uint8), 8, dtype),
                            "letterbox")):
            with pytest.raises(UsageError, match=f"^{name} dtype must be float32 or float64, "
                                                 f"got {got}$"):
                make()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, "float32", float])
    def test_float_dtypes_kept(self, dtype):
        assert Network(toy_graph(), dtype=dtype).dtype == np.dtype(dtype)


class TestCounts:
    def test_tiny_smaller_than_full(self):
        _, tiny = Network(builtin_graph("yolov3_tiny", 10)).count_parameters()
        _, full = Network(builtin_graph("yolov3", 10)).count_parameters()
        assert tiny < full

    def test_spp_delta_is_pool_free(self):
        _, plain = Network(builtin_graph("yolov3", 10)).count_parameters()
        _, spp = Network(builtin_graph("yolov3_spp", 10)).count_parameters()
        # only the 2048 -> 512 fusion conv (with its BN vectors) adds weight
        assert spp - plain == 512 * 2048 + 4 * 512

    def test_single_conv_fixture(self):
        from yolokit.cfg import parse_cfg

        graph = parse_cfg(
            "[net]\nwidth=64\nheight=64\nchannels=3\n"
            "[convolutional]\nfilters=32\nsize=3\nstride=1\npad=1\nbatch_normalize=1\n"
        )
        _, total = Network(graph).count_parameters()
        assert total == 992
