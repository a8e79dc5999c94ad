"""Weight-file layout, headers, round-trips, and seeded initialization."""

import io
import math
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from yolokit.cfg import parse_cfg, toy_graph
from yolokit.errors import WeightsFileError
from yolokit.network import Network
from yolokit.weights import (
    load_weights,
    load_weights_file,
    random_init,
    read_header,
    save_weights,
    save_weights_file,
)

SINGLE_CONV = """\
[net]
width=64
height=64
channels=3

[convolutional]
filters=32
size=3
stride=1
pad=1
batch_normalize=1
activation=leaky
"""

TWO_CONV = SINGLE_CONV + """
[convolutional]
filters=4
size=1
stride=1
pad=1
activation=linear
"""

# six equal layers, so the payload is six times its largest stored array
SIX_CONV = SINGLE_CONV.replace("channels=3", "channels=64").replace("filters=32", "filters=64")
SIX_CONV += SIX_CONV[SIX_CONV.index("[convolutional]") - 1 :] * 5


@pytest.fixture
def single_graph():
    return parse_cfg(SINGLE_CONV)


class TestLayout:
    def test_bn_layer_consumes_992_floats(self, single_graph):
        net = random_init(single_graph, seed=0)
        blob = save_weights(net)
        assert len(blob) == 20 + 4 * (32 + 32 + 32 + 32 + 32 * 3 * 9)

    def test_zero_network_serialization(self, single_graph):
        net = random_init(single_graph, seed=0)
        for _, p in net.conv_layers():
            p.weights[:] = 0
            p.bn_gamma[:] = 0
            p.bn_beta[:] = 0
            p.bn_mean[:] = 0
            p.bn_var[:] = 1
        blob = save_weights(net)
        floats = np.frombuffer(blob, dtype="<f4", offset=20)
        # everything zero except the 32 variance entries
        assert np.count_nonzero(floats) == 32

    def test_counts_match_network(self, single_graph):
        net = random_init(parse_cfg(TWO_CONV), seed=1)
        _, total = net.count_parameters()
        assert len(save_weights(net)) == 20 + 4 * total


class TestHeader:
    def test_modern_header_wide_seen(self):
        data = struct.pack("<3iQ", 0, 2, 0, 123456789012)
        fh = io.BytesIO(data + b"rest")
        header = read_header(fh)
        assert (header.major, header.minor, header.revision) == (0, 2, 0)
        assert header.seen == 123456789012
        assert fh.tell() == 20  # the floats begin where the header ends

    def test_legacy_header_narrow_seen(self, single_graph):
        net = random_init(single_graph, seed=2)
        modern = save_weights(net)
        legacy = struct.pack("<3iI", 0, 1, 0, 77) + modern[20:]
        reloaded = load_weights(single_graph, legacy)
        assert reloaded.seen == 77
        for (_, a), (_, b) in zip(net.conv_layers(), reloaded.conv_layers()):
            assert np.array_equal(a.weights, b.weights)

    def test_file_shorter_than_header(self, single_graph):
        with pytest.raises(WeightsFileError):
            load_weights(single_graph, b"\x00" * 8)


class TestRoundTrip:
    def test_save_load_parameter_identity(self, single_graph):
        net = random_init(single_graph, seed=3)
        reloaded = load_weights(single_graph, save_weights(net))
        for (_, a), (_, b) in zip(net.conv_layers(), reloaded.conv_layers()):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bn_gamma, b.bn_gamma)
            assert np.array_equal(a.bn_beta, b.bn_beta)
            assert np.array_equal(a.bn_mean, b.bn_mean)
            assert np.array_equal(a.bn_var, b.bn_var)

    def test_load_save_byte_identity(self, single_graph):
        net = random_init(single_graph, seed=4)
        blob = save_weights(net)
        assert save_weights(load_weights(single_graph, blob)) == blob

    def test_two_saves_identical(self, single_graph):
        net = random_init(single_graph, seed=5)
        assert save_weights(net) == save_weights(net)

    def test_float32_build_round_trips(self):
        graph = parse_cfg(TWO_CONV)
        net = random_init(graph, seed=6, dtype=np.float32)
        blob = save_weights(net)
        reloaded = load_weights(graph, blob, dtype=np.float32)
        for (_, a), (_, b) in zip(net.conv_layers(), reloaded.conv_layers()):
            assert np.array_equal(a.weights, b.weights)
        assert save_weights(reloaded) == blob


class TestErrors:
    def test_truncated_file_names_layer(self, single_graph):
        blob = save_weights(random_init(single_graph, seed=7))
        with pytest.raises(WeightsFileError) as err:
            load_weights(single_graph, blob[:-40])
        assert "layer 0" in str(err.value)

    def test_trailing_floats_rejected(self, single_graph):
        blob = save_weights(random_init(single_graph, seed=8))
        with pytest.raises(WeightsFileError) as err:
            load_weights(single_graph, blob + struct.pack("<f", 1.0))
        assert "trailing" in str(err.value)

    def test_ragged_byte_count_rejected(self, single_graph):
        blob = save_weights(random_init(single_graph, seed=9))
        with pytest.raises(WeightsFileError):
            load_weights(single_graph, blob + b"\x01")

    def test_non_finite_rejected(self, single_graph):
        blob = bytearray(save_weights(random_init(single_graph, seed=10)))
        blob[40:44] = struct.pack("<f", float("nan"))
        with pytest.raises(WeightsFileError) as err:
            load_weights(single_graph, bytes(blob))
        assert "non-finite" in str(err.value)

    def test_frozen_network_not_saved(self, single_graph):
        net = random_init(single_graph, seed=11)
        net.freeze()
        with pytest.raises(WeightsFileError) as err:
            save_weights(net)
        assert "layer 0" in str(err.value)


def _feed(fifo, data):
    """Write ``data`` to ``fifo``; a reader that stops at a bad array may
    close its end first."""
    try:
        with open(fifo, "wb") as fh:
            fh.write(data)
    except BrokenPipeError:
        pass


def _fifo_load(graph, data, tmp_path, dtype=np.float64):
    """``load_weights_file`` on a FIFO that a thread feeds ``data``."""
    fifo = tmp_path / "w.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=_feed, args=(fifo, data), daemon=True)
    writer.start()
    try:
        return load_weights_file(graph, fifo, dtype=dtype)
    finally:
        writer.join(timeout=10)
        fifo.unlink()
        assert not writer.is_alive()


def _three_loaders(graph, blob, tmp_path, dtype=np.float64):
    """The network from the blob, then from the same bytes in a file, then
    through a pipe."""
    path = tmp_path / "w.weights"
    path.write_bytes(blob)
    return (load_weights(graph, blob, dtype=dtype), load_weights_file(graph, path, dtype=dtype),
            _fifo_load(graph, blob, tmp_path, dtype))


def _load_error(loader, *args):
    with pytest.raises(WeightsFileError) as err:
        loader(*args)
    return str(err.value)


class TestFileLoad:
    """A blob, a file and a pipe are read by one loop over a stream, one
    stored array at a time: float32 parameters are views of one array of
    every stored float, float64 ones are converted from one reused buffer."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_file_and_blob_loads_agree_bitwise(self, tmp_path, dtype):
        graph = parse_cfg(TWO_CONV)
        blob = save_weights(random_init(graph, seed=20))
        from_blob, *others = _three_loaders(graph, blob, tmp_path, dtype)
        for other in others:
            for (_, a), (_, b) in zip(from_blob.conv_layers(), other.conv_layers()):
                for (name, x, _), (_, y, _) in zip(a.learnable(), b.learnable()):
                    assert x.dtype == y.dtype == dtype, name
                    assert np.array_equal(x, y), name
            assert save_weights(other) == blob

    def test_float32_parameters_are_writable_views_of_one_array(self, tmp_path):
        graph = parse_cfg(TWO_CONV)
        blob = save_weights(random_init(graph, seed=21))
        path = tmp_path / "w.weights"
        path.write_bytes(blob)
        net = load_weights_file(graph, path, dtype=np.float32)
        arrays = [net.params[0].bn_beta, net.params[0].bn_var, net.params[0].weights,
                  net.params[1].biases, net.params[1].weights]
        assert all(a.flags.writeable for a in arrays)
        assert all(np.shares_memory(arrays[0].base, a) for a in arrays)
        buffer = bytearray(blob)
        blob_net = load_weights(graph, buffer, dtype=np.float32)
        buffer[20:] = bytes(len(buffer) - 20)  # the caller's buffer is not aliased
        net.freeze()
        blob_net.freeze()
        for (_, a), (_, b) in zip(net.conv_layers(), blob_net.conv_layers()):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.biases, b.biases)

    def test_errors_name_the_first_bad_layer_and_field(self, tmp_path):
        # layer 0: 32 x (beta, gamma, mean, variance), 864 weights; layer 1:
        # 4 biases, 128 weights; floats start at byte 20
        graph = parse_cfg(TWO_CONV)
        blob = save_weights(random_init(graph, seed=22))

        def put(data, index, value):
            data = bytearray(data)
            data[20 + 4 * index : 24 + 4 * index] = struct.pack("<f", value)
            return bytes(data)

        nan, inf = float("nan"), float("inf")
        cases = [
            (put(blob, 0, nan), "layer 0: non-finite values in bn beta"),
            (put(blob, 100, -inf), "layer 0: non-finite values in bn variance"),
            (put(put(blob, 100, -1.0), 1000, nan),
             "layer 0: non-positive batch-norm variance"),
            (put(blob, 992 + 4 + 127, inf), "layer 1: non-finite values in weights"),
            (put(blob, 992 + 2, nan), "layer 1: non-finite values in biases"),
            (put(blob, 992 + 2, nan)[:-40],  # a bad value in a field before the cut
             "layer 1: non-finite values in biases"),
            (put(blob, 992 + 10, nan)[:-40],  # the cut's field: truncation is named
             "layer 1: file truncated reading weights (need 128 floats, have 118)"),
            (blob + struct.pack("<f", nan), "1 trailing floats after the last layer"),
            (blob + b"\x01", "4497 payload bytes is not a whole number of floats"),
            (blob[:-41], "4455 payload bytes is not a whole number of floats"),
            # the layers are read before the tail: a bad value wins over a ragged one
            (put(blob, 0, nan) + b"\x01", "layer 0: non-finite values in bn beta"),
            (blob[:10], "file too short for a header: 10 bytes"),
            (blob[:16], "file truncated inside the 64-bit seen field"),
            (struct.pack("<3iH", 0, 1, 0, 77), "file truncated inside the 32-bit seen field"),
        ]
        for data, message in cases:
            path = tmp_path / "w.weights"
            path.write_bytes(data)
            for dtype in (np.float32, np.float64):
                assert _load_error(load_weights, graph, data, dtype) == message
                assert _load_error(load_weights_file, graph, path, dtype) == message
                assert _load_error(_fifo_load, graph, data, tmp_path, dtype) == message

    def test_pipe_is_read_like_a_file(self, tmp_path):
        graph = parse_cfg(TWO_CONV)
        blob = save_weights(random_init(graph, seed=24))
        fifo = tmp_path / "w.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(blob,))
        writer.start()
        net = load_weights_file(graph, fifo, dtype=np.float32)
        writer.join()
        assert save_weights(net) == blob

    def test_short_and_legacy_header_files(self, tmp_path, single_graph):
        path = tmp_path / "short.weights"
        path.write_bytes(b"\x00" * 10)
        assert "too short" in _load_error(load_weights_file, single_graph, path)
        net = random_init(single_graph, seed=23)
        body = save_weights(net)[20:]
        legacy = struct.pack("<3iI", 0, 1, 0, 77) + body  # narrow seen field
        path.write_bytes(legacy)
        loaded = load_weights_file(single_graph, path)
        assert loaded.seen == 77
        assert np.array_equal(loaded.params[0].weights, net.params[0].weights)


def _traced_peak(fn, *args):
    """``fn(*args)`` and the bytes its traced allocations (numpy's buffers
    included) peaked at above the level they started from."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _parameter_bytes(net):
    return sum(getattr(p, name).nbytes for _, p in net.conv_layers()
               for name, _ in p.stored())


def _largest_stored_bytes(net):
    """Bytes of the largest array a convolution of ``net`` stores, as float32."""
    return max(4 * math.prod(shape)
               for _, p in net.conv_layers() for _, shape in p.stored())


# a margin for the Python objects of the network and of an open file
MARGIN_BYTES = 64 << 10


class TestMemory:
    """The payload never sits beside the float64 parameters, from a file or
    a pipe, and a save holds at most one stored array's conversion."""

    def test_float64_load_holds_the_parameters_and_one_array(self, tmp_path):
        graph = parse_cfg(SIX_CONV)
        path = tmp_path / "w.weights"
        path.write_bytes(save_weights(random_init(graph, seed=40)))
        net, peak = _traced_peak(load_weights_file, graph, path)
        params = _parameter_bytes(net)
        assert params == 2 * (path.stat().st_size - 20)  # float64 of every stored float
        assert peak <= params + _largest_stored_bytes(net) + MARGIN_BYTES

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pipe_load_holds_the_parameters_and_at_most_one_array(self, tmp_path, dtype):
        # a float32 load reads into its parameters; a float64 one converts
        # through one buffer the size of a layer
        graph = parse_cfg(SIX_CONV)
        blob = save_weights(random_init(graph, seed=45))  # allocated before tracing
        net, peak = _traced_peak(_fifo_load, graph, blob, tmp_path, dtype)
        params = _parameter_bytes(net)
        assert params == np.dtype(dtype).itemsize * (len(blob) - 20) // 4
        buffer = _largest_stored_bytes(net) if dtype == np.float64 else 0
        assert peak <= params + buffer + MARGIN_BYTES

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_save_holds_at_most_one_array(self, tmp_path, dtype):
        net = random_init(parse_cfg(SIX_CONV), seed=41, dtype=dtype)
        _, peak = _traced_peak(save_weights_file, net, tmp_path / "w.weights")
        assert peak <= _largest_stored_bytes(net) + MARGIN_BYTES


class TestFileSave:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch_normalize", [1, 0])
    def test_file_holds_the_bytes_of_save_weights(self, tmp_path, dtype, batch_normalize):
        cfg = TWO_CONV.replace("batch_normalize=1", f"batch_normalize={batch_normalize}")
        net = random_init(parse_cfg(cfg), seed=42, dtype=dtype)
        path = tmp_path / "w.weights"
        save_weights_file(net, path)
        assert path.read_bytes() == save_weights(net)

    @pytest.mark.parametrize("refused", ["frozen", "unparameterized", "bias length",
                                         "variance"])
    def test_refused_save_leaves_the_path_alone(self, tmp_path, single_graph, refused):
        # a save refuses what load_weights would refuse to read back
        message = {"bias length": r"^layer 4: biases must be shaped \(21,\), got \(22,\)$",
                   "variance": "^layer 0: non-positive batch-norm variance$"}.get(refused)
        if refused == "frozen":
            net = random_init(single_graph, seed=43)
            net.freeze()
        elif refused == "unparameterized":
            net = Network(single_graph)
        elif refused == "bias length":
            net = random_init(toy_graph(), seed=43)
            net.params[4].biases = np.zeros(22)
        else:
            net = random_init(single_graph, seed=43)
            net.params[0].bn_var = np.full(32, -1.0)
        old = save_weights(random_init(single_graph, seed=44))
        existing, missing = tmp_path / "old.weights", tmp_path / "new.weights"
        existing.write_bytes(old)
        for path in (existing, missing):
            with pytest.raises(WeightsFileError, match=message):
                save_weights_file(net, path)
        assert existing.read_bytes() == old
        assert not missing.exists()


class TestRandomInit:
    def test_same_seed_identical(self, single_graph):
        a = random_init(single_graph, seed=11)
        b = random_init(single_graph, seed=11)
        for (_, pa), (_, pb) in zip(a.conv_layers(), b.conv_layers()):
            assert np.array_equal(pa.weights, pb.weights)

    def test_different_seeds_differ(self, single_graph):
        a = random_init(single_graph, seed=11)
        b = random_init(single_graph, seed=12)
        assert any(
            not np.array_equal(pa.weights, pb.weights)
            for (_, pa), (_, pb) in zip(a.conv_layers(), b.conv_layers())
        )

    def test_fan_in_scaling(self):
        wide = parse_cfg(SINGLE_CONV.replace("channels=3", "channels=512"))
        narrow = parse_cfg(
            SINGLE_CONV.replace("channels=3", "channels=32").replace("size=3", "size=1")
        )
        w = random_init(wide, seed=13)
        n = random_init(narrow, seed=13)
        w_bound = max(abs(p.weights).max() for _, p in w.conv_layers())
        n_bound = max(abs(p.weights).max() for _, p in n.conv_layers())
        assert w_bound < n_bound
        assert w_bound <= 1 / np.sqrt(512 * 9)

    def test_bn_identity_defaults(self, single_graph):
        net = random_init(single_graph, seed=14)
        for _, p in net.conv_layers():
            assert np.all(p.bn_gamma == 1) and np.all(p.bn_beta == 0)
            assert np.all(p.bn_mean == 0) and np.all(p.bn_var == 1)
