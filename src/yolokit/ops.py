"""Dense CHW tensors and forward/backward compute kernels.

Feature maps are numpy arrays in channels x height x width layout, float64
for verification work and float32 when speed matters. Without a tape the
kernels are pure functions of their inputs, except that ``shortcut_add`` can
write its sum over an input its caller no longer needs. Passing a
:class:`GradTape` makes them record the closures needed to run the matching
backward pass later, and take the arrays they keep from the tape; a reset
tape hands those arrays to the next pass. An array an op returned stays
valid while the caller holds it. Parameter
gradients accumulate into buffers on :class:`ConvParams`, which makes
multi-pass gradient accumulation (emulated batching) a no-op to implement.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ShapeError, TapeError, UsageError

LEAKY_SLOPE = 0.1
BN_EPSILON = 1e-5
ACTIVATIONS = ("linear", "leaky", "sigmoid")

_FLOAT_DTYPES = (np.float32, np.float64)


def check_tensor(x, rank: int | None = None, name: str = "tensor") -> np.ndarray:
    """Validate a dense real tensor: float dtype, rank <= 4, all extents >= 1."""
    if not isinstance(x, np.ndarray):
        raise ShapeError(f"{name}: expected a numpy array, got {type(x).__name__}")
    if x.dtype.type not in _FLOAT_DTYPES:
        raise ShapeError(f"{name}: expected float32/float64 data, got {x.dtype}")
    if x.ndim < 1 or x.ndim > 4:
        raise ShapeError(f"{name}: rank must be 1..4, got {x.ndim}")
    if any(extent < 1 for extent in x.shape):
        raise ShapeError(f"{name}: all extents must be >= 1, got shape {x.shape}")
    return x


def check_conv_geometry(size: int, stride: int, activation: str) -> None:
    """A convolution's rules: an odd kernel size >= 1, stride 1 or 2 and an
    activation in ``ACTIVATIONS``; a ShapeError otherwise."""
    if size < 1 or size % 2 == 0:
        raise ShapeError(f"conv kernel size must be odd and >= 1, got {size}")
    if stride not in (1, 2):
        raise ShapeError(f"conv stride must be 1 or 2, got {stride}")
    if activation not in ACTIVATIONS:
        raise ShapeError(f"unknown activation {activation!r}")


def check_pool_geometry(size: int, stride: int, pad: int) -> None:
    """A max pool's rules: size and stride >= 1 and a padding in
    [0, size-1]; a ShapeError otherwise."""
    if size < 1 or stride < 1:
        raise ShapeError(f"pool size/stride must be >= 1, got {size}/{stride}")
    if not 0 <= pad <= size - 1:
        raise ShapeError(f"pool padding must satisfy 0 <= pad <= size-1, got {pad}")


def same_pad(size: int) -> int:
    """Cells of padding per side that keep a stride-1 window of odd ``size``
    on its input's grid: a convolution's padding and a pool's default."""
    return (size - 1) // 2


def window_output(h: int, w: int, size: int, stride: int, pad: int) -> tuple[int, int]:
    """(rows, cols) a ``size`` x ``size`` window at ``stride`` yields over an
    ``h`` x ``w`` map padded by ``pad`` on each side, ``floor((H + 2*pad -
    size)/stride) + 1`` per axis; a ShapeError if the window exceeds the
    padded map."""
    if h + 2 * pad < size or w + 2 * pad < size:
        raise ShapeError(f"window {size} exceeds padded input {h + 2 * pad}x{w + 2 * pad}")
    return (h + 2 * pad - size) // stride + 1, (w + 2 * pad - size) // stride + 1


def sigmoid(x):
    # 1/(1+e) for x >= 0 and e/(1+e) below, with e = exp(-|x|), so large |x|
    # never overflows exp; the select is a max with the mask, not a branch.
    # min(x, -x) is -|x| that keeps a NaN's sign bit.
    x = np.asarray(x)
    e = np.exp(np.minimum(x, -x))
    num = np.maximum(e, x >= 0)
    num /= 1.0 + e
    return num


def leaky_relu(x, slope: float = LEAKY_SLOPE):
    return np.where(x >= 0, x, slope * x)


@dataclass
class ConvParams:
    """Parameters of one convolution: weights plus optional batch-norm stats.

    Weights are laid out ``filters x in_channels x k x k``. With batch-norm the
    per-filter vectors are gamma/beta/rolling mean/rolling variance and the
    plain bias vector is unused; without batch-norm only ``biases`` applies.
    Batch-norm runs in inference mode: the rolling statistics are loaded data,
    never updated; only weights, biases and the BN affine terms carry
    gradients. ``Network.freeze`` folds the batch-norm into weights and biases
    for inference, leaving a plain biased convolution.
    """

    filters: int
    size: int
    stride: int = 1
    has_batchnorm: bool = False
    activation: str = "linear"
    weights: np.ndarray | None = None
    biases: np.ndarray | None = None
    bn_gamma: np.ndarray | None = None
    bn_beta: np.ndarray | None = None
    bn_mean: np.ndarray | None = None
    bn_var: np.ndarray | None = None
    g_weights: np.ndarray | None = field(default=None, repr=False)
    g_biases: np.ndarray | None = field(default=None, repr=False)
    g_gamma: np.ndarray | None = field(default=None, repr=False)
    g_beta: np.ndarray | None = field(default=None, repr=False)

    @property
    def pad(self) -> int:
        return same_pad(self.size)

    @property
    def parameterized(self) -> bool:
        return self.weights is not None

    def stored(self, in_channels: int) -> list[tuple[str, tuple[int, ...]]]:
        """(attribute, shape) of each array this convolution stores, in the
        weights file's order: the batch-norm beta, gamma, rolling mean and
        rolling variance, or the biases; then the weights."""
        f, k = self.filters, self.size
        vectors = (("bn_beta", "bn_gamma", "bn_mean", "bn_var") if self.has_batchnorm
                   else ("biases",))
        return [(name, (f,)) for name in vectors] + [("weights", (f, in_channels, k, k))]

    def validate(self) -> None:
        """The kernel rules (:func:`check_conv_geometry`); with weights
        attached, each stored array's shape and a positive batch-norm
        variance."""
        check_conv_geometry(self.size, self.stride, self.activation)
        if self.weights is None:
            return
        if self.weights.ndim != 4:
            raise ShapeError(f"weights must have rank 4, got shape {self.weights.shape}")
        for name, shape in self.stored(self.weights.shape[1]):
            arr = getattr(self, name)
            if arr is None or arr.shape != shape:
                raise ShapeError(f"{name} must be shaped {shape}, got "
                                 f"{None if arr is None else arr.shape}")
        if self.has_batchnorm and not np.all(self.bn_var > 0):
            raise ShapeError("non-positive batch-norm variance")

    def zero_grads(self) -> None:
        self.g_weights = np.zeros_like(self.weights)
        if self.has_batchnorm:
            self.g_gamma = np.zeros_like(self.bn_gamma)
            self.g_beta = np.zeros_like(self.bn_beta)
        else:
            self.g_biases = np.zeros_like(self.biases)

    def learnable(self):
        """Yield (name, value, gradient) for every trainable array."""
        yield "weights", self.weights, self.g_weights
        if self.has_batchnorm:
            yield "bn_gamma", self.bn_gamma, self.g_gamma
            yield "bn_beta", self.bn_beta, self.g_beta
        else:
            yield "biases", self.biases, self.g_biases


class GradTape:
    """Records forward ops so gradients can be pushed back through them, and
    lends those ops the arrays they allocate.

    Record one forward pass, then call :meth:`backward` with the output
    gradients. Input-tensor gradients are keyed by array identity (fetch with
    :meth:`grad`); parameter gradients accumulate directly into the
    ConvParams buffers. A tensor marked with :meth:`constant` gets no
    gradient, and the ops that read it skip the work of computing one.

    A recording op takes the arrays it keeps (outputs, padded inputs, im2col
    columns) from :meth:`empty`, and conv and maxpool take their input
    gradient from it too; scratch that is dead once its op returns is
    allocated as usual. :meth:`reset` ends
    the pass: it drops the entries, gradients and constants, then takes back
    every lent array that nothing outside the tape references, and the next
    pass's ops write over those. An array a recorded op returned, or any view
    of it, therefore stays valid while the caller holds it. The ops' backward
    closures get the tape as an argument, so nothing recorded refers back to
    the tape and a dropped tape is freed at once.
    """

    def __init__(self):
        self._entries: list[tuple[np.ndarray, object]] = []
        self._grads: dict[int, np.ndarray] = {}
        self._constants: dict[int, np.ndarray] = {}  # held, so no id is reused
        self._lent: list[np.ndarray] = []
        self._free: dict[tuple, list[np.ndarray]] = {}

    def empty(self, shape, dtype) -> np.ndarray:
        """An array of ``shape`` and ``dtype`` with arbitrary values: one taken
        back at the last :meth:`reset` if one is free, else a new one."""
        free = self._free.get((tuple(shape), np.dtype(dtype)))
        arr = free.pop() if free else np.empty(shape, dtype)
        self._lent.append(arr)
        return arr

    def reset(self) -> None:
        """Forget the recorded pass and take back the lent arrays nobody holds.

        Arrays taken back at the previous reset and not lent since are
        dropped, so the tape keeps at most one pass's arrays.
        """
        self._entries.clear()
        self._grads.clear()
        self._constants.clear()
        lent, self._lent = self._lent, []
        self._free = {}
        # what an array held by one local alone reads; a view's base, an
        # output a caller kept or a gradient it fetched reads more
        probe = np.empty(0)
        unheld = sys.getrefcount(probe)
        while lent:
            arr = lent.pop()
            if sys.getrefcount(arr) == unheld:
                self._free.setdefault((arr.shape, arr.dtype), []).append(arr)

    def record(self, out: np.ndarray, backward_fn) -> None:
        """Record ``backward_fn(grad_of_out, tape)`` to run during :meth:`backward`."""
        self._entries.append((out, backward_fn))

    def constant(self, arr: np.ndarray) -> None:
        """Mark ``arr`` as an input whose gradient nobody reads."""
        self._constants[id(arr)] = arr

    def needs_grad(self, arr: np.ndarray) -> bool:
        return id(arr) not in self._constants

    def accumulate(self, arr: np.ndarray, grad: np.ndarray) -> None:
        if id(arr) in self._constants:
            return
        existing = self._grads.get(id(arr))
        if existing is None:
            self._grads[id(arr)] = grad
        else:
            existing += grad

    def grad(self, arr: np.ndarray) -> np.ndarray | None:
        """Gradient accumulated for ``arr`` during backward, or None."""
        return self._grads.get(id(arr))

    def backward(self, seeds) -> None:
        """Run the reverse pass. ``seeds`` is an iterable of (tensor, grad)."""
        if not self._entries:
            raise TapeError("backward called on a tape with no recorded forward ops")
        recorded = {id(out) for out, _ in self._entries}
        seeded = False
        for arr, grad in seeds:
            if id(arr) not in recorded:
                raise TapeError("seed tensor was not produced by this tape's forward pass")
            grad = np.array(grad, dtype=arr.dtype)  # the tape's own copy
            if grad.shape != arr.shape:
                raise ShapeError(
                    f"seed gradient shape {grad.shape} does not match output {arr.shape}"
                )
            self.accumulate(arr, grad)
            seeded = True
        if not seeded:
            raise TapeError("backward needs at least one (output, gradient) seed")
        for out, fn in reversed(self._entries):
            gy = self._grads.get(id(out))
            if gy is None:
                continue
            fn(gy, self)


def _apply_activation(z, activation):
    """Activate ``z``, overwriting it for leaky; ``z`` must not be shared."""
    if activation == "leaky":
        # bit for bit the values of leaky_relu, written over z
        return np.maximum(z, LEAKY_SLOPE * z, out=z)
    if activation == "sigmoid":
        return sigmoid(z)
    return z


def _activation_grad(gy, y, activation):
    if activation == "leaky":
        # y = max(z, 0.1 z) has the sign of z, so y >= 0 is the mask z >= 0;
        # a product with a 1-or-0.1 scale selects without a per-element branch
        scale = (y >= 0).astype(gy.dtype)
        np.maximum(scale, LEAKY_SLOPE, out=scale)
        return np.multiply(gy, scale, out=scale)
    if activation == "sigmoid":
        return gy * y * (1.0 - y)
    return gy


def _empty(shape, dtype, tape):
    """``np.empty``, or an array ``tape`` lends; the caller writes every value."""
    return np.empty(shape, dtype) if tape is None else tape.empty(shape, dtype)


def _copy(a, tape):
    """A C-contiguous copy of ``a``, into an array ``tape`` lends if given."""
    out = _empty(a.shape, a.dtype, tape)
    out[...] = a
    return out


# Bytes of im2col columns an inference pass builds at once: output rows are
# convolved in bands whose columns fit this budget, so the full (C*k*k, H*W)
# column matrix of an early layer (118 MB for layer 1 of yolov3-spp at 640 px
# in float32) never exists at once. A recording tape keeps a layer's columns
# for its backward until reset, so a taped conv builds them in one band.
# Unfixed: BLAS may pick another float32 GEMM kernel for a narrow band, so
# where the split falls can change the last bits of an untaped float32 conv,
# and a taped and an untaped forward of a layer past the budget may differ.
# No toy-model layer (64 px) reaches the budget.
IM2COL_BAND_BYTES = 8 << 20


def _pad(x, pad, value, tape=None):
    """``x`` (C, H, W) inside a border of ``pad`` cells of ``value`` on both
    spatial axes, the values of ``np.pad(x, ((0, 0), (pad, pad), (pad, pad)),
    constant_values=value)``; no cell is written twice."""
    c, h, w = x.shape
    out = _empty((c, h + 2 * pad, w + 2 * pad), x.dtype, tape)
    out[:, :pad] = value
    out[:, pad + h :] = value
    out[:, pad : pad + h, :pad] = value
    out[:, pad : pad + h, pad + w :] = value
    out[:, pad : pad + h, pad : pad + w] = x
    return out


def _im2col(x_padded, k, stride, r0, r1, out_w, tape=None):
    # columns of output rows r0..r1-1: (C*k*k, (r1-r0)*out_w), rows in weight
    # order (c, ki, kj), columns in spatial scan order, so W @ cols is CHW
    rows = x_padded[:, r0 * stride : (r1 - 1) * stride + k]
    if k == 1 and stride == 1:
        return rows.reshape(rows.shape[0], -1)
    # the (c, ki, kj, row, col) window view: rows[c, row*stride + ki, col*stride + kj]
    sc, sh, sw = rows.strides
    windows = as_strided(rows, (rows.shape[0], k, k, r1 - r0, out_w),
                         (sc, sh, sw, sh * stride, sw * stride), writeable=False)
    return _copy(windows, tape).reshape(-1, (r1 - r0) * out_w)


def conv2d_forward(x: np.ndarray, params: ConvParams, tape: GradTape | None = None) -> np.ndarray:
    """Same-padded 2D convolution with optional batch-norm and activation.

    Output spatial extent is ``ceil(H / stride)`` per axis. Raises ShapeError
    when the input channel count does not match the weights. Without a tape
    the GEMM runs band by band over output rows (see ``IM2COL_BAND_BYTES``);
    a taped convolution, and a 1x1 stride-1 one that reads its input in
    place, runs one band.
    """
    x = check_tensor(x, rank=3, name="conv input")
    p = params
    p.validate()
    if not p.parameterized:
        raise UsageError("convolution has no weights attached yet")
    cin = p.weights.shape[1]
    if x.shape[0] != cin:
        raise ShapeError(f"conv weights expect {cin} input channels, input has {x.shape[0]}")
    k, s, pad = p.size, p.stride, p.pad
    _, h, w = x.shape
    out_h, out_w = window_output(h, w, k, s, pad)

    w_mat = p.weights.reshape(p.filters, -1)
    if k == 1 and s == 1:
        x_padded = x
        band = out_h  # the input is its own columns: nothing to copy
    else:
        x_padded = _pad(x, pad, 0, tape)
        # a recording tape keeps every band's columns until reset anyway
        band = out_h if tape is not None else max(
            1, IM2COL_BAND_BYTES // (cin * k * k * out_w * x.itemsize))
    z = _empty((p.filters, out_h * out_w), np.result_type(w_mat, x), tape)
    for r0 in range(0, out_h, band):
        r1 = min(r0 + band, out_h)
        cols = _im2col(x_padded, k, s, r0, r1, out_w, tape)
        np.matmul(w_mat, cols, out=z[:, r0 * out_w : r1 * out_w])
        if tape is None:
            del cols  # so that only one band's columns exist at a time
    z = z.reshape(p.filters, out_h, out_w)

    if p.has_batchnorm:
        inv_std = 1.0 / np.sqrt(p.bn_var + BN_EPSILON)
        z -= p.bn_mean[:, None, None]
        z *= inv_std[:, None, None]
        x_hat = z
        z = np.multiply(p.bn_gamma[:, None, None], x_hat,
                        out=_empty(x_hat.shape, np.result_type(p.bn_gamma, x_hat), tape))
        z += p.bn_beta[:, None, None]
    else:
        x_hat = None
        z += p.biases[:, None, None]
    y = _apply_activation(z, p.activation)

    if tape is not None:

        def backward(gy, tape):
            g = _activation_grad(gy, y, p.activation)
            if p.has_batchnorm:
                p.g_beta += g.sum(axis=(1, 2))
                p.g_gamma += (g * x_hat).sum(axis=(1, 2))
                gz = g * (p.bn_gamma * inv_std)[:, None, None]
            else:
                p.g_biases += g.sum(axis=(1, 2))
                gz = g
            gz_flat = gz.reshape(p.filters, -1)
            p.g_weights += (gz_flat @ cols.T).reshape(p.weights.shape)
            if not tape.needs_grad(x):
                return
            # col2im: the columns are kept; the padded input is not
            gcols = (w_mat.T @ gz_flat).reshape(cin, k, k, out_h, out_w)
            gxp = tape.empty((cin, h + 2 * pad, w + 2 * pad), x.dtype)
            gxp[...] = 0
            for ki in range(k):
                for kj in range(k):
                    gxp[:, ki : ki + s * (out_h - 1) + 1 : s,
                        kj : kj + s * (out_w - 1) + 1 : s] += gcols[:, ki, kj]
            tape.accumulate(x, _copy(gxp[:, pad : pad + h, pad : pad + w], tape) if pad else gxp)

        tape.record(y, backward)
    return y


def maxpool2d_forward(x: np.ndarray, size: int, stride: int, pad: int,
                      tape: GradTape | None = None) -> np.ndarray:
    """Max pooling with symmetric padding; padded cells are -inf, never selected.

    The rules are :func:`check_pool_geometry`'s and the output extent
    :func:`window_output`'s. The max is separable: a running max over the
    ``size`` shifted column slices, then over the ``size`` shifted row slices
    of that, so no window is copied. The backward sends each output's gradient to the first cell of
    its window, in row-major order, that equals the output (argmax's rule).
    """
    x = check_tensor(x, rank=3, name="maxpool input")
    check_pool_geometry(size, stride, pad)
    c, h, w = x.shape
    out_h, out_w = window_output(h, w, size, stride, pad)
    x_padded = _pad(x, pad, -np.inf, tape) if pad else x
    col_span = stride * (out_w - 1) + 1
    row_span = stride * (out_h - 1) + 1
    # the running max is the second operand: numpy returns it on a tie of
    # -0.0 and 0.0, so even a signed zero is the window's first maximum
    cols_max = _copy(x_padded[:, :, 0:col_span:stride], tape)
    for kj in range(1, size):
        np.maximum(x_padded[:, :, kj : kj + col_span : stride], cols_max, out=cols_max)
    y = _copy(cols_max[:, 0:row_span:stride], tape)
    for ki in range(1, size):
        np.maximum(cols_max[:, ki : ki + row_span : stride], y, out=y)

    if tape is not None:

        def backward(gy, tape):
            gxp = tape.empty((c, h + 2 * pad, w + 2 * pad), x.dtype)
            gxp[...] = 0
            routed = np.zeros(y.shape, dtype=bool)
            for ki in range(size):
                for kj in range(size):
                    cell = (slice(None), slice(ki, ki + row_span, stride),
                            slice(kj, kj + col_span, stride))
                    first = (x_padded[cell] == y) & ~routed
                    gxp[cell] += np.where(first, gy, 0)
                    routed |= first
            tape.accumulate(x, _copy(gxp[:, pad : pad + h, pad : pad + w], tape) if pad else gxp)

        tape.record(y, backward)
    return y


def upsample2x(x: np.ndarray, tape: GradTape | None = None) -> np.ndarray:
    """Nearest-neighbor 2x upsampling: each value becomes a 2x2 block."""
    x = check_tensor(x, rank=3, name="upsample input")
    c, h, w = x.shape
    y = _empty((c, 2 * h, 2 * w), x.dtype, tape)
    y.reshape(c, h, 2, w, 2)[...] = x[:, :, None, :, None]
    if tape is not None:

        def backward(gy, tape):
            tape.accumulate(x, gy.reshape(c, h, 2, w, 2).sum(axis=(2, 4)))

        tape.record(y, backward)
    return y


def concat_channels(inputs, tape: GradTape | None = None) -> np.ndarray:
    """Concatenate CHW tensors along channels; spatial shapes must agree."""
    if not inputs:
        raise ShapeError("concat_channels needs at least one input")
    xs = [check_tensor(x, rank=3, name=f"concat input {i}") for i, x in enumerate(inputs)]
    spatial = xs[0].shape[1:]
    for i, x in enumerate(xs[1:], start=1):
        if x.shape[1:] != spatial:
            raise ShapeError(
                f"concat input {i} spatial shape {x.shape[1:]} != {spatial}"
            )
    splits = [x.shape[0] for x in xs]
    y = np.concatenate(xs, axis=0,
                       out=_empty((sum(splits), *spatial), np.result_type(*xs), tape))
    if tape is not None:

        def backward(gy, tape):
            start = 0
            for x, nch in zip(xs, splits):
                tape.accumulate(x, np.ascontiguousarray(gy[start : start + nch]))
                start += nch

        tape.record(y, backward)
    return y


def shortcut_add(x: np.ndarray, y: np.ndarray, tape: GradTape | None = None,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise residual add of two identically shaped tensors.

    ``out=x`` writes the sum over ``x``, for a caller that no longer needs
    it; a recording tape keys gradients by ``x`` and does not allow that.
    """
    x = check_tensor(x, rank=3, name="shortcut input")
    y = check_tensor(y, rank=3, name="shortcut skip")
    if x.shape != y.shape:
        raise ShapeError(f"shortcut shapes differ: {x.shape} vs {y.shape}")
    if out is not None and tape is not None:
        raise UsageError("shortcut_add cannot write into its input while a tape records")
    out = np.add(x, y, out=out if tape is None else tape.empty(x.shape, np.result_type(x, y)))
    if tape is not None:

        def backward(gy, tape):
            tape.accumulate(x, gy.copy())
            tape.accumulate(y, gy.copy())

        tape.record(out, backward)
    return out
