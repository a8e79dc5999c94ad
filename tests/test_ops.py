"""Kernel-level tests: shapes, frozen oracle values, and tape gradients."""

import re
import struct
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from yolokit import ops
from yolokit.cfg import parse_cfg, toy_graph
from yolokit.errors import ShapeError, TapeError, UsageError, WeightsFileError
from yolokit.gradcheck import finite_difference, relative_errors
from yolokit.oracles import conv_direct, maxpool_scan, maxpool_scan_grad
from yolokit.weights import load_weights, random_init


def leaky(x):
    """The leaky activation's definition, for the in-place kernel to meet."""
    return np.where(x >= 0, x, ops.LEAKY_SLOPE * x)


def make_conv(filters, cin, k, stride=1, activation="linear", bn=False, rng=None):
    p = ops.ConvParams(filters, k, stride, bn, activation, in_channels=cin)
    if rng is None:
        rng = np.random.default_rng(0)
    p.weights = rng.normal(0, 0.5, size=(filters, cin, k, k))
    if bn:
        p.bn_gamma = rng.uniform(0.5, 1.5, filters)
        p.bn_beta = rng.normal(0, 0.3, filters)
        p.bn_mean = rng.normal(0, 0.3, filters)
        p.bn_var = rng.uniform(0.5, 2.0, filters)
    else:
        p.biases = rng.normal(0, 0.3, filters)
    return p


def _as_dtype(p, dtype):
    """A copy of the ConvParams ``p`` with its stored arrays in ``dtype``."""
    q = ops.ConvParams(p.filters, p.size, p.stride, p.has_batchnorm, p.activation,
                       in_channels=p.in_channels)
    for name, _ in p.stored():
        setattr(q, name, getattr(p, name).astype(dtype))
    return q


class TestTensorChecks:
    def test_rank_bounds(self):
        with pytest.raises(ShapeError):
            ops.check_tensor(np.zeros((1, 1, 1, 1, 1)))
        with pytest.raises(ShapeError):
            ops.check_tensor(np.zeros(()))

    def test_zero_extent_rejected(self):
        with pytest.raises(ShapeError):
            ops.check_tensor(np.zeros((3, 0, 4)))

    def test_integer_data_rejected(self):
        with pytest.raises(ShapeError):
            ops.check_tensor(np.zeros((2, 2), dtype=int))

    @pytest.mark.parametrize("shape", [(3, 4), (1, 3, 4, 4)])
    def test_every_op_and_the_forward_refuse_a_non_chw_array(self, shape):
        bad, good = np.zeros(shape), np.zeros((3, 4, 4))
        calls = {
            "conv input": lambda: ops.conv2d_forward(bad, make_conv(2, 3, 1)),
            "maxpool input": lambda: ops.maxpool2d_forward(bad, 2, 2, 0),
            "upsample input": lambda: ops.upsample2x(bad),
            "concat input 1": lambda: ops.concat_channels([good, bad]),
            "shortcut input": lambda: ops.shortcut_add(bad, good),
            "shortcut skip": lambda: ops.shortcut_add(good, bad),
            "image": lambda: random_init(toy_graph(), seed=0).forward(bad),
        }
        for name, call in calls.items():
            with pytest.raises(ShapeError, match=rf"^{name}: expected a \(C, H, W\) array, "
                                                 rf"got shape {re.escape(str(shape))}$"):
                call()


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, (4, 7, 7))
        p = ops.ConvParams(4, 1, in_channels=4)
        p.weights = np.eye(4).reshape(4, 4, 1, 1).astype(float)
        p.biases = np.zeros(4)
        assert np.array_equal(ops.conv2d_forward(x, p), x)

    def test_stride2_halves_256(self):
        x = np.zeros((3, 256, 256))
        p = make_conv(64, 3, 3, stride=2)
        assert ops.conv2d_forward(x, p).shape == (64, 128, 128)

    def test_all_ones_3x3(self):
        p = ops.ConvParams(1, 3, in_channels=1)
        p.weights = np.ones((1, 1, 3, 3))
        p.biases = np.zeros(1)
        out = ops.conv2d_forward(np.ones((1, 3, 3)), p)
        assert np.array_equal(out[0], [[4, 6, 4], [6, 9, 6], [4, 6, 4]])

    @pytest.mark.parametrize("k,stride", [(1, 1), (3, 1), (3, 2), (5, 2)])
    def test_matches_direct_summation(self, k, stride):
        rng = np.random.default_rng(k * 10 + stride)
        x = rng.normal(0, 1, (3, 9, 8))
        p = make_conv(4, 3, k, stride=stride, rng=rng)
        got = ops.conv2d_forward(x, p)
        want = conv_direct(x, p.weights, p.biases, stride, (k - 1) // 2)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("h,w", [(9, 7), (8, 10)])
    def test_im2col_equals_the_window_view_copy(self, k, stride, h, w):
        x = np.random.default_rng(17).normal(0, 1, (3, h, w))
        pad = (k - 1) // 2
        x_padded = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
        windows = sliding_window_view(x_padded, (k, k), axis=(1, 2))
        windows = windows[:, ::stride, ::stride].transpose(0, 3, 4, 1, 2)
        _, _, _, out_h, out_w = windows.shape
        want = windows.reshape(3 * k * k, out_h * out_w)
        # the whole map as one band, then split in two bands; each band's
        # columns come from its own contiguous padded rows, as the conv's do
        mid = out_h // 2
        for r0, r1 in [(0, out_h), (0, mid), (mid, out_h)]:
            band = np.ascontiguousarray(x_padded[:, r0 * stride : (r1 - 1) * stride + k])
            got = ops._im2col(band, k, stride, r1 - r0, out_w)
            assert got.shape == (3 * k * k, (r1 - r0) * out_w)
            assert np.array_equal(got, want[:, r0 * out_w : r1 * out_w])

    @pytest.mark.parametrize("k,stride", [(3, 1), (3, 2), (5, 1), (5, 2)])
    def test_several_bands_match_direct_summation(self, k, stride, monkeypatch):
        rng = np.random.default_rng(20 + k * 10 + stride)
        x = rng.normal(0, 1, (3, 11, 9))
        p = make_conv(4, 3, k, stride=stride, activation="leaky", rng=rng)
        out_h = (11 - 1) // stride + 1
        out_w = (9 - 1) // stride + 1
        # four output rows per band: 11 rows -> 4+4+3, 6 rows -> 4+2
        monkeypatch.setattr(ops, "IM2COL_BAND_BYTES", 4 * 3 * k * k * out_w * x.itemsize)
        # a band's padded rows start at its first output row times the
        # stride, and its columns are built from those rows alone
        starts, heights = [], []
        pad_rows, im2col = ops._pad_rows, ops._im2col

        def recording_pad_rows(x, pad, value, start, out):
            starts.append(start)
            return pad_rows(x, pad, value, start, out)

        def recording_im2col(x_padded, k, stride, rows, *rest):
            heights.append(rows)
            return im2col(x_padded, k, stride, rows, *rest)

        def bands():
            return [(start // stride, start // stride + n) for start, n in zip(starts, heights)]

        monkeypatch.setattr(ops, "_pad_rows", recording_pad_rows)
        monkeypatch.setattr(ops, "_im2col", recording_im2col)
        got = ops.conv2d_forward(x, p)
        assert bands() == [(r0, min(r0 + 4, out_h)) for r0 in range(0, out_h, 4)]
        assert out_h % 4  # the last band is ragged
        want = leaky(conv_direct(x, p.weights, p.biases, stride, (k - 1) // 2))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

        # a recording tape keeps the columns, so it builds them in one band
        starts.clear()
        heights.clear()
        p.zero_grads()
        tape = ops.GradTape()
        out = ops.conv2d_forward(x, p, tape)
        assert bands() == [(0, out_h)]
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)
        projection = rng.uniform(-1, 1, out.shape)
        tape.backward([(out, projection)])

        def objective():
            return float(np.sum(ops.conv2d_forward(x, p) * projection))

        pairs = [(value, grad) for _name, value, grad in p.learnable()]
        pairs.append((x, tape.grad(x)))
        for value, grad in pairs:
            fd = finite_difference(objective, value)
            assert relative_errors(grad.ravel(), fd.ravel()).max() < 1e-4

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("bn", [False, True])
    def test_untaped_conv_holds_its_output_and_one_band(self, dtype, bn, monkeypatch):
        # eight output rows per band: beside the output, only one band's
        # columns and its padded input rows exist at once, so neither a full
        # padded copy nor a full-size activation temporary does
        cin, filters, size, rows = 8, 16, 96, 8
        rng = np.random.default_rng(30)
        x = rng.normal(0, 1, (cin, size, size)).astype(dtype)
        p = _as_dtype(make_conv(filters, cin, 3, activation="leaky", bn=bn, rng=rng), dtype)
        cols = cin * 9 * rows * size * x.itemsize
        monkeypatch.setattr(ops, "IM2COL_BAND_BYTES", cols)
        band_rows = cin * (rows + 2) * (size + 2) * x.itemsize
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            y = ops.conv2d_forward(x, p)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= y.nbytes + cols + band_rows + (16 << 10)

    def test_taped_and_banded_forwards_agree(self, monkeypatch):
        # one output row's columns (16 * 9 * 40 values) exceed the budget, so
        # the untaped forward runs 40 one-row GEMMs and the taped one a
        # single GEMM. float64 agrees bitwise. In float32 BLAS may pick
        # another kernel for the narrow bands, so each output may differ by
        # the rounding of a K = 144 term dot product plus the bias add and
        # the activation: 2 * (K + 2) * u * (|W| |x| + |b|), u = 2**-24.
        monkeypatch.setattr(ops, "IM2COL_BAND_BYTES", 16 << 10)
        rng = np.random.default_rng(31)
        x64 = rng.normal(0, 1, (16, 80, 80))
        p64 = make_conv(32, 16, 3, stride=2, activation="leaky", rng=rng)
        windows = sliding_window_view(np.pad(np.abs(x64), ((0, 0), (1, 1), (1, 1))), (3, 3),
                                      axis=(1, 2))[:, ::2, ::2]
        magnitude = (np.einsum("fcij,cyxij->fyx", np.abs(p64.weights), windows)
                     + np.abs(p64.biases)[:, None, None])
        for dtype in (np.float64, np.float32):
            x, p = x64.astype(dtype), _as_dtype(p64, dtype)
            assert 16 * 9 * 40 * x.itemsize > ops.IM2COL_BAND_BYTES
            untaped = ops.conv2d_forward(x, p)
            taped = ops.conv2d_forward(x, p, ops.GradTape())
            if dtype is np.float64:
                assert np.array_equal(taped, untaped)
            else:
                bound = 2 * (144 + 2) * 2.0**-24 * magnitude
                assert np.all(np.abs(taped.astype(np.float64) - untaped) <= bound)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_1x1_input_gradient_is_the_transposed_gemm(self, dtype):
        # the 1x1 stride-1 conv's col2im is one offset into an unpadded map
        rng = np.random.default_rng(23)
        x = rng.normal(0, 1, (5, 6, 7)).astype(dtype)
        p = make_conv(4, 5, 1, rng=rng)
        p.weights, p.biases = p.weights.astype(dtype), p.biases.astype(dtype)
        p.zero_grads()
        tape = ops.GradTape()
        out = ops.conv2d_forward(x, p, tape)
        gz = rng.normal(0, 1, out.shape).astype(dtype)
        tape.backward([(out, gz)])
        want = (p.weights.reshape(4, 5).T @ gz.reshape(4, -1)).reshape(x.shape)
        assert tape.grad(x).dtype == dtype
        assert np.array_equal(tape.grad(x), want)

    def test_channel_mismatch(self):
        p = make_conv(2, 3, 3)
        with pytest.raises(ShapeError):
            ops.conv2d_forward(np.zeros((4, 5, 5)), p)

    def test_batchnorm_matches_manual(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, (2, 6, 6))
        p = make_conv(3, 2, 3, bn=True, rng=rng)
        raw = conv_direct(x, p.weights, np.zeros(3), 1, 1)
        manual = (
            p.bn_gamma[:, None, None]
            * (raw - p.bn_mean[:, None, None])
            / np.sqrt(p.bn_var + ops.BN_EPSILON)[:, None, None]
            + p.bn_beta[:, None, None]
        )
        np.testing.assert_allclose(ops.conv2d_forward(x, p), manual, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_batchnorm_forward_bitwise_equals_out_of_place_formula(self, dtype):
        # z -= mean, z *= inv, gamma * x_hat, += beta: the bits of
        # gamma * ((z - mean) * inv) + beta on the same GEMM output z
        rng = np.random.default_rng(15)
        x = rng.normal(0, 1, (3, 9, 8)).astype(dtype)
        p = make_conv(4, 3, 3, bn=True, rng=rng)
        for name in ("weights", "bn_gamma", "bn_beta", "bn_mean", "bn_var"):
            setattr(p, name, getattr(p, name).astype(dtype))
        plain = ops.ConvParams(4, 3, 1, False, "linear", weights=p.weights,
                               biases=np.zeros(4, dtype=dtype), in_channels=3)
        z = ops.conv2d_forward(x, plain)  # + 0.0 bias changes no bits used below
        inv = 1.0 / np.sqrt(p.bn_var + ops.BN_EPSILON)
        x_hat = (z - p.bn_mean[:, None, None]) * inv[:, None, None]
        want = p.bn_gamma[:, None, None] * x_hat + p.bn_beta[:, None, None]
        got = ops.conv2d_forward(x, p)
        assert got.dtype == dtype
        assert np.array_equal(got, want)

    def test_bad_variance_rejected(self):
        # checked where arrays are bound, not on each call: by
        # ConvParams.validate, which every binder runs, a load included
        p = make_conv(2, 2, 1, bn=True)
        p.bn_var = np.array([1.0, -0.5])
        with pytest.raises(ShapeError, match="^non-positive batch-norm variance$"):
            p.validate()
        graph = parse_cfg("[net]\nwidth=4\nheight=4\nchannels=2\n\n[convolutional]\n"
                          "filters=2\nsize=1\nbatch_normalize=1\nactivation=linear\n")
        # beta, gamma, rolling mean, rolling variance, weights
        floats = np.array([0, 0, 1, 1, 0, 0, 1, -0.5, 1, 0, 0, 1], "<f4")
        header = struct.pack("<3iQ", 0, 2, 0, 0)
        with pytest.raises(WeightsFileError, match="^layer 0: non-positive batch-norm variance$"):
            load_weights(graph, header + floats.tobytes())
        floats[7] = 0.5  # the same file with a positive variance loads
        net = load_weights(graph, header + floats.tobytes())
        assert np.array_equal(net.params[0].bn_var, [1.0, 0.5])


class TestMaxpool:
    def test_constant_field(self):
        x = np.full((2, 5, 5), 3.25)
        out = ops.maxpool2d_forward(x, 3, 2, 1)
        assert out.shape == (2, 3, 3)
        assert np.all(out == 3.25)

    def test_same_pad_keeps_shape(self):
        x = np.random.default_rng(2).normal(0, 1, (3, 11, 7))
        assert ops.maxpool2d_forward(x, 5, 1, 2).shape == x.shape

    def test_ramp_window(self):
        ramp = np.arange(1.0, 17.0).reshape(1, 4, 4)
        out = ops.maxpool2d_forward(ramp, 2, 2, 0)
        assert np.array_equal(out[0], [[6, 8], [14, 16]])

    def test_matches_window_scan(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            c = int(rng.integers(1, 5))
            h = int(rng.integers(1, 12))
            w = int(rng.integers(1, 12))
            k = int(rng.choice([2, 3, 5]))
            stride = int(rng.choice([1, 2]))
            pad = min(k - 1, int(rng.integers(0, k)))
            if h + 2 * pad < k or w + 2 * pad < k:
                continue
            x = rng.normal(0, 1, (c, h, w))
            got = ops.maxpool2d_forward(x, k, stride, pad)
            assert np.array_equal(got, maxpool_scan(x, k, stride, pad))

    @staticmethod
    def tie_cases():
        """Every legal (size, stride, pad) of sizes 1..13 on tie-heavy inputs."""
        rng = np.random.default_rng(14)
        for size in (1, 2, 3, 5, 9, 13):
            for stride in (1, 2):
                for pad in range(size):
                    low = max(1, size - 2 * pad)
                    h, w = (int(v) for v in rng.integers(low, low + 8, 2))
                    # few distinct integers, so most windows hold tied maxima
                    x = rng.integers(-2, 3, (2, h, w)).astype(np.float64)
                    x[rng.random(x.shape) < 0.15] = -np.inf
                    yield size, stride, pad, x, rng

    def test_ties_and_inf_match_window_scan_bitwise(self):
        for size, stride, pad, x, _ in self.tie_cases():
            for dtype in (np.float64, np.float32):
                xd = x.astype(dtype)
                got = ops.maxpool2d_forward(xd, size, stride, pad)
                assert got.dtype == dtype
                assert np.array_equal(got, maxpool_scan(xd, size, stride, pad)), (size, stride, pad)

    def test_backward_routes_ties_to_first_window_cell(self):
        for size, stride, pad, x, rng in self.tie_cases():
            tape = ops.GradTape()
            out = ops.maxpool2d_forward(x, size, stride, pad, tape)
            # integer gradients sum exactly in any order
            gy = rng.integers(-3, 4, out.shape).astype(np.float64)
            tape.backward([(out, gy)])
            want = maxpool_scan_grad(x, size, stride, pad, gy)
            assert np.array_equal(tape.grad(x), want), (size, stride, pad)

    def test_backward_float_gradients_within_1e12(self):
        # float gradients routed to one cell sum in another order than the
        # scan's, so equal only to ~1 ulp of the summed magnitude
        for size, stride, pad, x, rng in self.tie_cases():
            tape = ops.GradTape()
            out = ops.maxpool2d_forward(x, size, stride, pad, tape)
            gy = rng.normal(0, 1, out.shape)
            tape.backward([(out, gy)])
            want = maxpool_scan_grad(x, size, stride, pad, gy)
            scale = maxpool_scan_grad(x, size, stride, pad, np.abs(gy))
            assert np.all(np.abs(tape.grad(x) - want) <= 1e-12 * scale), (size, stride, pad)

    def test_dominance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, (2, 8, 8))
        out = ops.maxpool2d_forward(x, 3, 1, 1)
        assert np.all(out >= x)

    def test_window_larger_than_padded_input(self):
        with pytest.raises(ShapeError):
            ops.maxpool2d_forward(np.zeros((1, 2, 2)), 5, 1, 1)

    def test_pad_cap(self):
        with pytest.raises(ShapeError):
            ops.maxpool2d_forward(np.zeros((1, 8, 8)), 3, 1, 3)


class TestUpsample:
    def test_single_cell(self):
        out = ops.upsample2x(np.array([[[7.0]]]))
        assert np.array_equal(out, np.full((1, 2, 2), 7.0))

    def test_block_repeat(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = ops.upsample2x(x)
        want = np.array([[[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]], dtype=float)
        assert np.array_equal(out, want)

    def test_sum_identity(self):
        x = np.random.default_rng(6).normal(0, 1, (3, 5, 9))
        assert np.isclose(ops.upsample2x(x).sum(), 4 * x.sum())


class TestConcatAndShortcut:
    def test_single_input_identity(self):
        x = np.random.default_rng(7).normal(0, 1, (2, 3, 3))
        assert np.array_equal(ops.concat_channels([x]), x)

    def test_four_way(self):
        xs = [np.random.default_rng(i).normal(0, 1, (512, 20, 20)) for i in range(4)]
        out = ops.concat_channels(xs)
        assert out.shape == (2048, 20, 20)

    def test_slicing_recovers_inputs(self):
        rng = np.random.default_rng(8)
        xs = [rng.normal(0, 1, (c, 4, 4)) for c in (1, 3, 2)]
        out = ops.concat_channels(xs)
        start = 0
        for x in xs:
            assert np.array_equal(out[start : start + x.shape[0]], x)
            start += x.shape[0]

    def test_spatial_mismatch(self):
        with pytest.raises(ShapeError):
            ops.concat_channels([np.zeros((1, 4, 4)), np.zeros((1, 4, 5))])

    def test_shortcut_out_writes_over_input(self):
        rng = np.random.default_rng(15)
        x, y = rng.normal(0, 1, (2, 2, 3, 3))
        want = x + y
        assert ops.shortcut_add(x, y, out=x) is x
        assert np.array_equal(x, want)
        with pytest.raises(UsageError):
            ops.shortcut_add(x, y, ops.GradTape(), out=x)

    def test_shortcut_mismatch(self):
        with pytest.raises(ShapeError):
            ops.shortcut_add(np.zeros((1, 4, 4)), np.zeros((2, 4, 4)))


class TestActivations:
    def test_leaky_definition(self):
        x = np.linspace(-4, 4, 101)
        y = ops._apply_activation(x.copy(), "leaky")
        assert np.array_equal(y[x >= 0], x[x >= 0])
        assert np.array_equal(y[x < 0], 0.1 * x[x < 0])
        assert np.all(np.diff(y) > 0)  # strictly monotone on a strict ramp

    @pytest.mark.parametrize("dtype,bits", [(np.float64, np.uint64), (np.float32, np.uint32)])
    def test_leaky_backward_selects_gradient(self, dtype, bits):
        rng = np.random.default_rng(14)
        y = leaky(rng.normal(0, 1, 75).astype(dtype))
        gy = rng.normal(0, 1, y.shape).astype(dtype)
        # each special gradient meets a +0, -0, positive and negative output
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.5], dtype)
        y_grid, gy_grid = np.meshgrid(np.array([0.0, -0.0, 0.5, -0.05], dtype), special)
        y = np.concatenate([y, y_grid.ravel()])
        gy = np.concatenate([gy, gy_grid.ravel()])
        y_before, gy_before = y.copy(), gy.copy()
        got = ops._activation_grad(gy, y, "leaky")
        assert got.dtype == dtype
        # the select it replaced, bit for bit
        want = np.where(y >= 0, gy, ops.LEAKY_SLOPE * gy)
        assert np.array_equal(got.view(bits), want.view(bits))
        if dtype == np.float64:  # the old mask product, bit for bit
            assert np.array_equal(got.view(bits),
                                  (gy * np.where(y >= 0, 1.0, ops.LEAKY_SLOPE)).view(bits))
        assert np.array_equal(y.view(bits), y_before.view(bits))
        assert np.array_equal(gy.view(bits), gy_before.view(bits))

    @pytest.mark.parametrize("dtype,bits", [(np.float64, np.uint64), (np.float32, np.uint32)])
    def test_in_place_leaky_bitwise_equals_the_select(self, dtype, bits):
        tiny = np.finfo(dtype).smallest_subnormal
        special = [0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 10 * tiny, -10 * tiny]
        x = np.concatenate([
            np.array(special, dtype=dtype),
            np.random.default_rng(13).normal(0, 3, 1000).astype(dtype),
        ])
        z = x.copy()
        y = ops._apply_activation(z, "leaky")
        assert y is z
        assert np.array_equal(y.view(bits), leaky(x).view(bits))

    @pytest.mark.parametrize("dtype,bits", [(np.float64, np.uint64), (np.float32, np.uint32)])
    def test_sigmoid_bitwise_equals_the_split_by_sign_formula(self, dtype, bits):
        def split_by_sign(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 800.0, -800.0, 1e-310, -1e-310]
        x = np.concatenate([
            np.array(special, dtype=dtype),
            (np.random.default_rng(15).normal(0, 1, 1000) * 30).astype(dtype),
        ])
        got = ops.sigmoid(x)
        assert got.dtype == dtype
        assert np.array_equal(got.view(bits), split_by_sign(x).view(bits))

    def test_sigmoid_saturation_and_range(self):
        assert ops.sigmoid(np.array([800.0]))[0] == 1.0
        assert ops.sigmoid(np.array([-800.0]))[0] == 0.0
        x = np.linspace(-30, 30, 201)
        s = ops.sigmoid(x)
        assert np.all((s >= 0) & (s <= 1))
        np.testing.assert_allclose(s + ops.sigmoid(-x), 1.0, atol=1e-12)


class TestZeroPad:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_equals_np_pad(self, dtype):
        rng = np.random.default_rng(16)
        for shape in [(1, 1, 1), (3, 5, 7), (8, 64, 64), (2, 1, 9)]:
            x = rng.normal(0, 1, shape).astype(dtype)
            x.flat[0] = -0.0
            for pad in range(4):
                for value in (0, -np.inf):
                    # a lent array holds stale values: only the pad writes count
                    for tape in (None, ops.GradTape()):
                        if tape is not None:
                            tape.empty((shape[0], shape[1] + 2 * pad, shape[2] + 2 * pad),
                                       dtype)[...] = np.nan
                            tape.reset()
                        got = ops._pad(x, pad, value, tape)
                        want = np.pad(x, ((0, 0), (pad, pad), (pad, pad)),
                                      constant_values=value)
                        assert got.dtype == want.dtype == dtype
                        assert got.shape == want.shape
                        bits = np.uint64 if dtype == np.float64 else np.uint32
                        assert np.array_equal(got.view(bits), want.view(bits))

    def test_non_contiguous_input(self):
        x = np.random.default_rng(17).normal(0, 1, (4, 6, 10))[:, ::2, 1::3]
        assert np.array_equal(ops._pad(x, 2, 0), np.pad(x, ((0, 0), (2, 2), (2, 2))))


class TestShapeAlgebra:
    def test_formula_matches_materialized(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            c = int(rng.integers(1, 5))
            h = int(rng.integers(1, 16))
            w = int(rng.integers(1, 16))
            x = rng.normal(0, 1, (c, h, w))
            k = int(rng.choice([1, 3, 5]))
            stride = int(rng.choice([1, 2]))
            p = make_conv(int(rng.integers(1, 4)), c, k, stride=stride, rng=rng)
            pad = (k - 1) // 2
            want = ((h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1)
            assert ops.conv2d_forward(x, p).shape[1:] == want


class TestGradTape:
    def test_lends_an_array_again_only_after_reset_and_only_when_unheld(self):
        tape = ops.GradTape()
        held = tape.empty((2, 3), np.float64)
        view = tape.empty((2, 3), np.float64)[1:]  # its base is held through the view
        free = [weakref.ref(tape.empty((2, 3), np.float64)) for _ in range(2)]
        loans = [held, view.base] + [ref() for ref in free]
        assert len({id(a) for a in loans}) == 4  # no reset: every loan is new
        del loans
        other = weakref.ref(tape.empty((3, 2), np.float64))
        tape.reset()
        assert tape.empty((2, 3), np.float32).dtype == np.float32  # keyed by dtype too
        again = [tape.empty((2, 3), np.float64) for _ in range(3)]
        assert {id(a) for a in again[:2]} == {id(ref()) for ref in free}
        assert not any(a is held or a is view.base for a in again)
        assert tape.empty((3, 2), np.float64) is other()
        # what is taken back and not lent again by the next reset is dropped
        kept = weakref.ref(again[2])
        del again
        tape.reset()
        assert kept() is not None
        tape.reset()
        assert kept() is None

    def test_backward_before_forward(self):
        with pytest.raises(TapeError):
            ops.GradTape().backward([(np.zeros((1, 1, 1)), np.zeros((1, 1, 1)))])

    def test_unknown_seed_rejected(self):
        tape = ops.GradTape()
        x = np.ones((1, 2, 2))
        p = make_conv(1, 1, 1)
        p.zero_grads()
        ops.conv2d_forward(x, p, tape)
        with pytest.raises(TapeError):
            tape.backward([(np.ones((1, 2, 2)), np.ones((1, 2, 2)))])

    @pytest.mark.parametrize("seed_dtype", [np.float32, np.float64])
    def test_backward_leaves_the_seed_arrays_unchanged(self, seed_dtype):
        # y is seeded and also read by the add, whose gradient is summed
        # into y's: into the tape's copy of the seed, never the caller's
        rng = np.random.default_rng(24)
        x = rng.normal(0, 1, (2, 5, 5)).astype(np.float32)
        p = make_conv(3, 2, 3, rng=rng)
        p.weights, p.biases = p.weights.astype(np.float32), p.biases.astype(np.float32)
        p.zero_grads()
        tape = ops.GradTape()
        y = ops.conv2d_forward(x, p, tape)
        total = ops.shortcut_add(y, y, tape)
        seeds = [rng.normal(0, 1, y.shape).astype(seed_dtype) for _ in range(2)]
        given = [g.copy() for g in seeds]
        tape.backward([(y, seeds[0]), (total, seeds[1])])
        for seed, copy in zip(seeds, given):
            assert seed.dtype == seed_dtype
            assert np.array_equal(seed, copy)
        own, added = (g.astype(np.float32) for g in seeds)
        want = own + added + added  # the seed, then the add's two terms
        assert np.array_equal(tape.grad(y), want)

    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(10)
        x = rng.normal(0, 1, (2, 4, 4))
        p = make_conv(3, 2, 3, activation="leaky", rng=rng)
        p.zero_grads()
        tape = ops.GradTape()
        out = ops.conv2d_forward(x, p, tape)
        tape.backward([(out, np.zeros_like(out))])
        assert not p.g_weights.any()
        assert not p.g_biases.any()
        assert not tape.grad(x).any()

    def test_single_1x1_conv_weight_grad_is_input(self):
        p = make_conv(1, 1, 1)
        p.weights = np.array([[[[1.5]]]])
        p.biases = np.zeros(1)
        p.zero_grads()
        x = np.array([[[4.0]]])
        tape = ops.GradTape()
        out = ops.conv2d_forward(x, p, tape)
        tape.backward([(out, np.ones_like(out))])
        assert p.g_weights[0, 0, 0, 0] == 4.0

    def test_composed_network_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        x = rng.normal(0, 1, (2, 8, 8))
        convs = [
            make_conv(4, 2, 3, activation="leaky", bn=True, rng=rng),
            make_conv(3, 4, 3, stride=2, activation="sigmoid", rng=rng),
            make_conv(2, 3, 1, rng=rng),
        ]

        def forward(tape=None):
            h = ops.conv2d_forward(x, convs[0], tape)
            h = ops.maxpool2d_forward(h, 3, 1, 1, tape)
            h = ops.conv2d_forward(h, convs[1], tape)
            return ops.conv2d_forward(h, convs[2], tape)

        for p in convs:
            p.zero_grads()
        tape = ops.GradTape()
        out = forward(tape)
        projection = rng.uniform(-1, 1, out.shape)
        tape.backward([(out, projection)])

        for p in convs:
            for _name, value, grad in p.learnable():
                fd = finite_difference(lambda: float(np.sum(forward() * projection)), value)
                assert relative_errors(grad.ravel(), fd.ravel()).max() < 1e-4

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("bn", [False, True])
    def test_single_conv_matches_finite_differences(self, k, stride, bn):
        rng = np.random.default_rng(100 * k + 10 * stride + bn)
        x = rng.normal(0, 1, (3, 7, 6))
        p = make_conv(4, 3, k, stride=stride, activation="leaky", bn=bn, rng=rng)

        p.zero_grads()
        tape = ops.GradTape()
        out = ops.conv2d_forward(x, p, tape)
        projection = rng.uniform(-1, 1, out.shape)
        tape.backward([(out, projection)])

        def objective():
            return float(np.sum(ops.conv2d_forward(x, p) * projection))

        pairs = [(value, grad) for _name, value, grad in p.learnable()]
        pairs.append((x, tape.grad(x)))
        for value, grad in pairs:
            fd = finite_difference(objective, value)
            assert relative_errors(grad.ravel(), fd.ravel()).max() < 1e-4

    @pytest.mark.parametrize("k,stride", [(1, 1), (3, 1), (3, 2)])
    @pytest.mark.parametrize("bn", [False, True])
    def test_constant_input_gets_no_gradient(self, k, stride, bn):
        rng = np.random.default_rng(20 + 10 * k + stride + bn)
        x = rng.normal(0, 1, (3, 7, 6))
        p = make_conv(4, 3, k, stride=stride, activation="leaky", bn=bn, rng=rng)
        grads = []
        for constant in (False, True):
            p.zero_grads()
            tape = ops.GradTape()
            if constant:
                tape.constant(x)
            out = ops.conv2d_forward(x, p, tape)
            tape.backward([(out, np.linspace(-1, 1, out.size).reshape(out.shape))])
            assert (tape.grad(x) is None) == constant
            assert tape.needs_grad(x) != constant
            grads.append([g.copy() for _, _, g in p.learnable()])
        for with_input, without in zip(*grads):
            assert np.array_equal(with_input, without)

    def test_constant_skips_other_ops_accumulation(self):
        x = np.random.default_rng(21).normal(0, 1, (2, 4, 4))
        tape = ops.GradTape()
        tape.constant(x)
        out = ops.upsample2x(ops.maxpool2d_forward(x, 2, 2, 0, tape), tape)
        tape.backward([(out, np.ones_like(out))])
        assert tape.grad(x) is None

    def test_accumulation_across_two_passes(self):
        rng = np.random.default_rng(12)
        x = rng.normal(0, 1, (1, 3, 3))
        p = make_conv(2, 1, 3, rng=rng)
        p.zero_grads()
        tape = ops.GradTape()
        out = ops.conv2d_forward(x, p, tape)
        tape.backward([(out, np.ones_like(out))])
        once = p.g_weights.copy()
        tape2 = ops.GradTape()
        out2 = ops.conv2d_forward(x, p, tape2)
        tape2.backward([(out2, np.ones_like(out2))])
        np.testing.assert_allclose(p.g_weights, 2 * once)
