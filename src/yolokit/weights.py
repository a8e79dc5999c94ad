"""Binary weight files: bit-exact reader/writer plus seeded random init.

File layout (little-endian throughout): three int32 header fields
(major, minor, revision), an image counter whose width depends on the
version -- uint64 when ``major*10 + minor >= 2``, uint32 otherwise -- and
then raw float32 parameters for every convolution in graph order. Per
convolution the order is: with batch-norm, beta, gamma, rolling mean,
rolling variance (one float per filter each) then weights; without
batch-norm, biases then weights. Weight blocks are filters x in_channels
x k x k in row-major order. The stream must be consumed exactly.
"""

from __future__ import annotations

import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .cfg import ModelGraph
from .errors import WeightsFileError
from .network import Network

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


def read_header(data: bytes) -> tuple[WeightsHeader, int]:
    """Parse the header, returning it and the offset where floats begin."""
    if len(data) < 12:
        raise WeightsFileError(f"file too short for a header: {len(data)} bytes")
    major, minor, revision = struct.unpack_from("<3i", data, 0)
    header = WeightsHeader(major, minor, revision, 0)
    if header.wide_seen:
        if len(data) < 20:
            raise WeightsFileError("file truncated inside the 64-bit seen field")
        header.seen = struct.unpack_from("<Q", data, 12)[0]
        return header, 20
    if len(data) < 16:
        raise WeightsFileError("file truncated inside the 32-bit seen field")
    header.seen = struct.unpack_from("<I", data, 12)[0]
    return header, 16


def load_weights(graph: ModelGraph, data: bytes, dtype=np.float64) -> Network:
    """Bind a weight blob to a graph, returning a parameterized network."""
    header, offset = read_header(data)
    _check_payload(len(data) - offset)
    floats = np.frombuffer(data, dtype="<f4", offset=offset)
    floats.flags.writeable = False  # the caller's buffer: parameters copy out of it
    return _bind(graph, header, floats, dtype)


def load_weights_file(graph: ModelGraph, path, dtype=np.float64) -> Network:
    """:func:`load_weights` on a file, whose floats are read once, in place."""
    with open(path, "rb") as fh:
        prefix = fh.read(20)
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):  # a pipe has no size to read into
            return load_weights(graph, prefix + fh.read(), dtype=dtype)
        header, offset = read_header(prefix)
        body = info.st_size - offset
        _check_payload(body)
        fh.seek(offset)
        floats = np.empty(body // 4, dtype="<f4")
        if fh.readinto(floats) != body:
            raise WeightsFileError(f"{path}: file changed size while being read")
    return _bind(graph, header, floats, dtype)


def _check_payload(body: int) -> None:
    if body % 4:
        raise WeightsFileError(f"{body} payload bytes is not a whole number of floats")


def _bind(graph: ModelGraph, header: WeightsHeader, floats: np.ndarray, dtype) -> Network:
    """Attach the payload ``floats`` (little-endian float32) to a network for
    ``graph``. Float32 parameters are views of a writable payload and copies
    of a read-only one; float64 ones are converted layer by layer."""
    net = Network(graph, dtype=dtype)
    net.seen = header.seen
    # one finiteness pass; the sum of finite float32 values cannot overflow
    # float64, so it is finite exactly when every value is
    if np.isfinite(np.sum(floats, dtype=np.float64)):
        first_bad = floats.size
    else:
        first_bad = int(np.flatnonzero(~np.isfinite(floats))[0])

    cursor = 0

    def take(n, layer_idx, what):
        nonlocal cursor
        if cursor + n > floats.size:
            raise WeightsFileError(
                f"layer {layer_idx}: file truncated reading {what} "
                f"(need {n} floats, have {floats.size - cursor})"
            )
        if cursor <= first_bad < cursor + n:
            raise WeightsFileError(f"layer {layer_idx}: non-finite values in {what}")
        chunk = floats[cursor : cursor + n]
        cursor += n
        return chunk.astype(dtype, copy=not floats.flags.writeable)

    for i, p in net.conv_layers():
        f = p.filters
        cin = net.conv_in_channels[i]
        if p.has_batchnorm:
            p.bn_beta = take(f, i, "bn beta")
            p.bn_gamma = take(f, i, "bn gamma")
            p.bn_mean = take(f, i, "bn mean")
            p.bn_var = take(f, i, "bn variance")
            if not np.all(p.bn_var > 0):
                raise WeightsFileError(f"layer {i}: non-positive batch-norm variance")
        else:
            p.biases = take(f, i, "biases")
        k = p.size
        p.weights = take(f * cin * k * k, i, "weights").reshape(f, cin, k, k)
    if cursor != floats.size:
        raise WeightsFileError(
            f"{floats.size - cursor} trailing floats after the last layer"
        )
    return net


def save_weights(network: Network) -> bytes:
    """Serialize a parameterized network; exact inverse of load_weights."""
    if not network.parameterized:
        raise WeightsFileError("cannot save an unparameterized network")
    major, minor, revision = WRITE_VERSION
    parts = [struct.pack("<3iQ", major, minor, revision, network.seen)]
    for i, p in network.conv_layers():
        if p.has_batchnorm != bool(network.graph.layers[i].attrs["batch_normalize"]):
            raise WeightsFileError(
                f"layer {i}: batch-norm state does not match the graph "
                "(a frozen network cannot be saved)"
            )
        if p.has_batchnorm:
            vectors = (p.bn_beta, p.bn_gamma, p.bn_mean, p.bn_var)
        else:
            vectors = (p.biases,)
        for vec in vectors:
            parts.append(vec.astype("<f4").tobytes())
        parts.append(p.weights.astype("<f4").tobytes())
    return b"".join(parts)


def save_weights_file(network: Network, path) -> None:
    with open(path, "wb") as fh:
        fh.write(save_weights(network))


def random_init(graph: ModelGraph, seed: int, dtype=np.float64) -> Network:
    """Seeded uniform init scaled by 1/sqrt(fan-in); identity batch-norm.

    Draws are rounded through float32 so that a save/load cycle reproduces
    the parameters bit for bit in any build precision.
    """
    net = Network(graph, dtype=dtype)
    rng = np.random.default_rng(seed)
    for i, p in net.conv_layers():
        f, k = p.filters, p.size
        cin = net.conv_in_channels[i]
        bound = 1.0 / np.sqrt(cin * k * k)
        w = rng.uniform(-bound, bound, size=(f, cin, k, k))
        p.weights = w.astype(np.float32).astype(dtype)
        if p.has_batchnorm:
            p.bn_gamma = np.ones(f, dtype=dtype)
            p.bn_beta = np.zeros(f, dtype=dtype)
            p.bn_mean = np.zeros(f, dtype=dtype)
            p.bn_var = np.ones(f, dtype=dtype)
        else:
            p.biases = np.zeros(f, dtype=dtype)
    return net
