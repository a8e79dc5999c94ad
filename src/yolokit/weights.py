"""Binary weight files: bit-exact reader/writer plus seeded random init.

File layout (little-endian throughout): three int32 header fields
(major, minor, revision), an image counter whose width depends on the
version -- uint64 when ``major*10 + minor >= 2``, uint32 otherwise -- and
then raw float32 parameters for every convolution in graph order. Per
convolution the arrays and their order are ``ops.ConvParams.stored``'s:
with batch-norm, beta, gamma, rolling mean, rolling variance (one float per
filter each) then weights; without batch-norm, biases then weights. Weight
blocks are row-major in ``stored``'s layout. The stream must be consumed
exactly.

A blob, a file and a pipe are all read by one loop over a binary stream,
one stored array at a time in file order, so no load needs the file's size.
Each array is read into its own float32 array and bound in the network's
dtype by one rule, ``astype(dtype, copy=False)``: in float32 the array read
is the parameter, in float64 it is converted and released before the next
read, so a float64 load holds at most one stored array beside the
parameters. Saves write one stored array at a time too.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass

import numpy as np

from .cfg import ModelGraph
from .errors import ValidationError, WeightsFileError
from .network import Network, validate_layer

WRITE_VERSION = (0, 2, 0)


@dataclass
class WeightsHeader:
    major: int
    minor: int
    revision: int
    seen: int

    @property
    def wide_seen(self) -> bool:
        return self.major * 10 + self.minor >= 2


def read_header(fh) -> WeightsHeader:
    """Read the header from the binary stream ``fh``, leaving it where the
    floats begin."""
    data = fh.read(12)
    if len(data) < 12:
        raise WeightsFileError(f"file too short for a header: {len(data)} bytes")
    header = WeightsHeader(*struct.unpack("<3i", data), 0)
    width, code = (8, "<Q") if header.wide_seen else (4, "<I")
    data = fh.read(width)
    if len(data) < width:
        raise WeightsFileError(f"file truncated inside the {8 * width}-bit seen field")
    header.seen = struct.unpack(code, data)[0]
    return header


def load_weights(graph: ModelGraph, data: bytes, dtype=np.float64) -> Network:
    """Bind a weight blob to a graph, returning a parameterized network."""
    return _read_weights(graph, io.BytesIO(data), dtype)


def load_weights_file(graph: ModelGraph, path, dtype=np.float64) -> Network:
    """:func:`load_weights` on a file, a pipe included."""
    with open(path, "rb") as fh:
        return _read_weights(graph, fh, dtype)


def _read_weights(graph: ModelGraph, fh, dtype) -> Network:
    """A network of ``graph`` bound to the weights file read from the binary
    stream ``fh``, one stored array at a time in file order, each bound by
    ``astype(dtype, copy=False)``. The stream is read to its end."""
    net = Network(graph, dtype=dtype)
    net.seen = read_header(fh).seen
    body = 0  # payload bytes read
    for i, p in net.conv_layers():
        for name, shape in p.stored():
            what = "bn variance" if name == "bn_var" else name.replace("_", " ")
            stored = np.empty(shape, "<f4")
            got = fh.readinto(stored)
            if got < stored.nbytes:  # the stream ended inside this array
                _check_payload(body + got)
                raise WeightsFileError(
                    f"layer {i}: file truncated reading {what} "
                    f"(need {stored.size} floats, have {got // 4})"
                )
            # max and min carry any NaN or infinity, and the spread of two
            # finite float32 values is finite in float64; no cast buffer
            if not math.isfinite(float(stored.max()) - float(stored.min())):
                raise WeightsFileError(f"layer {i}: non-finite values in {what}")
            setattr(p, name, stored.astype(net.dtype, copy=False))
            body += got
            del stored  # a float64 load holds one read array at a time
        validate_layer(i, p, WeightsFileError)
    trailing = len(fh.read())
    _check_payload(body + trailing)
    if trailing:
        raise WeightsFileError(f"{trailing // 4} trailing floats after the last layer")
    return net


def _check_payload(body: int) -> None:
    if body % 4:
        raise WeightsFileError(f"{body} payload bytes is not a whole number of floats")


def _file_chunks(network: Network):
    """The weights file as a sequence of byte buffers: the header, then each
    stored array. Every layer is checked before the header is yielded."""
    if not network.parameterized:
        raise WeightsFileError("cannot save an unparameterized network")
    for i, p in network.conv_layers():
        if p.has_batchnorm != bool(network.graph.layers[i].attrs["batch_normalize"]):
            raise WeightsFileError(
                f"layer {i}: batch-norm state does not match the graph "
                "(a frozen network cannot be saved)"
            )
        validate_layer(i, p, WeightsFileError)
    major, minor, revision = WRITE_VERSION
    yield struct.pack("<3iQ", major, minor, revision, network.seen)
    for _, p in network.conv_layers():
        for name, _ in p.stored():
            # a copy only when the array is not already contiguous float32
            yield np.ascontiguousarray(getattr(p, name), dtype="<f4")


def save_weights(network: Network) -> bytes:
    """Serialize a parameterized network; exact inverse of load_weights."""
    return b"".join(_file_chunks(network))


def save_weights_file(network: Network, path) -> None:
    """:func:`save_weights` to ``path``, one stored array at a time. A
    network that cannot be saved is refused before the file is opened."""
    chunks = _file_chunks(network)
    header = next(chunks)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.writelines(chunks)


def check_seed(seed: int) -> None:
    """A random seed's range, at least 0 (numpy's generators take no
    negative seed): a ValidationError below it."""
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")


def random_init(graph: ModelGraph, seed: int, dtype=np.float64) -> Network:
    """Seeded uniform init scaled by 1/sqrt(fan-in); identity batch-norm.

    Draws are rounded through float32 so that a save/load cycle reproduces
    the parameters bit for bit in any build precision.
    """
    check_seed(seed)
    net = Network(graph, dtype=dtype)
    rng = np.random.default_rng(seed)
    for _, p in net.conv_layers():
        for name, shape in p.stored():
            if name == "weights":
                bound = 1.0 / np.sqrt(math.prod(shape[1:]))
                w = rng.uniform(-bound, bound, size=shape)
                p.weights = w.astype(np.float32).astype(net.dtype)
            else:  # identity batch-norm: gamma and variance 1, beta and mean 0
                setattr(p, name, np.full(shape, float(name in ("bn_gamma", "bn_var")), net.dtype))
        p.validate()
    return net
