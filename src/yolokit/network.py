"""Executable networks: a validated graph bound to parameters, plus forward.

A :class:`Network` owns one :class:`~yolokit.cfg.ModelGraph` and a ConvParams
slot per layer (None for parameter-free layers). Parameters are attached by
the weights module (file load or seeded random init); running ``forward`` on
an unparameterized network is a usage error. ``freeze`` folds batch-norm into
the convolutions once, for inference. Inference is read-only, so one
parameterized network can serve concurrent forward passes; each call builds
its own activations. A forward given a tape records on it and takes the
activations from it: a trainer that resets one tape after each image runs
every image in the same arrays, and a head map it still holds when it resets
is left alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ops
from .cfg import ModelGraph, layer_inputs, shape_check
from .errors import GraphValidationError, ShapeError, UsageError


@dataclass
class HeadOutput:
    """Raw prediction map of one detection scale.

    ``raw`` is (3*(5+C)) x S_rows x S_cols and alone sets the grid and the
    class count; ``stride`` is input pixels per cell; ``anchors`` are the
    three (w, h) pixel priors for this scale; ``ignore_thresh`` is the
    ``[yolo]`` layer's IoU above which a non-responsible prediction escapes
    the no-object loss.
    """

    stride: int
    raw: np.ndarray
    anchors: list[tuple[float, float]]
    ignore_thresh: float

    def __post_init__(self):
        if self.raw.ndim != 3 or self.raw.shape[0] % 3 or self.raw.shape[0] < 18:
            raise ShapeError(f"head map must be (3*(5+C)) x rows x cols with C >= 1, "
                             f"got {self.raw.shape}")

    @property
    def grid(self) -> tuple[int, int]:
        return self.raw.shape[1], self.raw.shape[2]

    @property
    def num_classes(self) -> int:
        return self.raw.shape[0] // 3 - 5


class Network:
    """A graph plus per-convolution parameters, executable on CHW images."""

    def __init__(self, graph: ModelGraph, dtype=np.float64):
        self.graph = graph
        # per input size that passed shape_check, its [yolo] layers coarse
        # to fine: (layer index, stride, anchors, ignore_thresh)
        self._heads_at: dict[tuple[int, int], list] = {}
        shapes = self._check_size(graph.input_height, graph.input_width)
        self.dtype = np.dtype(dtype)
        self.seen = 0
        self.params: list[ops.ConvParams | None] = []
        self.conv_in_channels: dict[int, int] = {}
        for i, layer in enumerate(graph.layers):
            a = layer.attrs
            if layer.kind == "convolutional":
                p = ops.ConvParams(
                    filters=a["filters"],
                    size=a["size"],
                    stride=a["stride"],
                    has_batchnorm=bool(a["batch_normalize"]),
                    activation=a["activation"],
                )
                self.conv_in_channels[i] = shapes[i - 1][0] if i else graph.input_channels
                self.params.append(p)
            else:
                self.params.append(None)
        self._inputs = layer_inputs(graph)
        # the outputs each layer is the last reader of, [yolo] outputs (the
        # heads) excepted
        last_reader = {j: i for i, reads in enumerate(self._inputs) for j in reads}
        self._dead_after: list[list[int]] = [[] for _ in graph.layers]
        for j, i in last_reader.items():
            if j < 0 or graph.layers[j].kind != "yolo":
                self._dead_after[i].append(j)

    def _check_size(self, height: int, width: int) -> list[tuple[int, int, int]]:
        """Run ``shape_check`` at one input size, record that size's heads
        coarse to fine, and return the layer shapes."""
        shapes = shape_check(self.graph, width, height)
        heads = []
        for i, layer in enumerate(self.graph.layers):
            if layer.kind == "yolo":
                a = layer.attrs
                anchors = [(float(a["anchors"][2 * m]), float(a["anchors"][2 * m + 1]))
                           for m in a["mask"]]
                heads.append((i, height // shapes[i][1], anchors, a["ignore_thresh"]))
        heads.sort(key=lambda head: -head[1])
        self._heads_at[height, width] = heads
        return shapes

    @property
    def parameterized(self) -> bool:
        return all(p is None or p.parameterized for p in self.params)

    def conv_layers(self):
        """Yield (layer_index, ConvParams) for every convolution, in order."""
        for i, p in enumerate(self.params):
            if p is not None:
                yield i, p

    def zero_grads(self) -> None:
        for _, p in self.conv_layers():
            p.zero_grads()

    def freeze(self) -> None:
        """Fold batch-norm into each convolution's weights and bias, in place.

        Inference then runs only the GEMM plus one bias-and-activation pass.
        The folded network has no gamma/beta left to train and cannot be
        saved in the file layout; fold after loading, never before training.
        """
        if not self.parameterized:
            raise UsageError("network has no parameters; load weights or random-init first")
        for _, p in self.conv_layers():
            if not p.has_batchnorm:
                continue
            scale = p.bn_gamma / np.sqrt(p.bn_var + ops.BN_EPSILON)
            p.weights *= scale[:, None, None, None]
            p.biases = p.bn_beta - p.bn_mean * scale
            p.has_batchnorm = False
            p.bn_gamma = p.bn_beta = p.bn_mean = p.bn_var = None
            p.g_gamma = p.g_beta = None

    def forward(self, image: np.ndarray, tape: ops.GradTape | None = None) -> list[HeadOutput]:
        """Run the full graph on one image, returning heads coarse to fine.

        The input size must pass ``shape_check``, the rule of the graph's own
        heads (checked once per size); otherwise it is a ShapeError. The
        image is a constant on the tape: a backward fills the parameter
        gradients only.
        """
        if not self.parameterized:
            raise UsageError("network has no parameters; load weights or random-init first")
        image = ops.check_tensor(image, rank=3, name="image")
        if image.shape[0] != self.graph.input_channels:
            raise ShapeError(
                f"image has {image.shape[0]} channels, net expects {self.graph.input_channels}"
            )
        _, in_h, in_w = image.shape
        if (in_h, in_w) not in self._heads_at:
            try:
                self._check_size(in_h, in_w)
            except GraphValidationError as exc:
                raise ShapeError(f"input {in_h}x{in_w} does not fit the graph: {exc}") from exc
        image = np.ascontiguousarray(image, dtype=self.dtype)
        if tape is not None:
            tape.constant(image)

        outputs = self.run_layers(image, 0, len(self.graph.layers), tape)
        return [HeadOutput(stride, outputs[i], list(anchors), ignore_thresh)
                for i, stride, anchors, ignore_thresh in self._heads_at[in_h, in_w]]

    def run_layers(self, x: np.ndarray, start: int, stop: int,
                   tape: ops.GradTape | None = None) -> dict[int, np.ndarray]:
        """Run graph layers ``start`` .. ``stop - 1`` on ``x``, the output of
        layer ``start - 1`` (the image when ``start`` is 0).

        Returns outputs keyed by layer index. With a tape every output is
        kept, ``x`` under ``start - 1``. Without one, each output is dropped
        once its last reader has run, so the result holds ``stop - 1``, the
        ``[yolo]`` outputs and outputs read only by layers past ``stop``.
        Parameter-free layers run on an unparameterized network too, which is
        how checks exercise the graph's own pooling blocks.
        """
        outputs = {start - 1: x}
        for i in range(start, stop):
            layer = self.graph.layers[i]
            a = layer.attrs
            if layer.kind == "convolutional":
                x = ops.conv2d_forward(x, self.params[i], tape)
            elif layer.kind == "maxpool":
                x = ops.maxpool2d_forward(x, a["size"], a["stride"], a["padding"], tape)
            elif layer.kind == "upsample":
                x = ops.upsample2x(x, tape)
            elif layer.kind == "route":
                x = ops.concat_channels([outputs[j] for j in self._inputs[i]], tape)
            elif layer.kind == "shortcut":
                skip = outputs[self._inputs[i][1]]
                # a dead input made by this loop is free to take the sum
                dead = tape is None and i - 1 >= start and i - 1 in self._dead_after[i]
                x = ops.shortcut_add(x, skip, tape, out=x if dead else None)
            outputs[i] = x
            if tape is None:
                for j in self._dead_after[i]:
                    outputs.pop(j, None)
        return outputs

    def backward(self, tape: ops.GradTape, head_grads) -> None:
        """Push per-head raw gradients back to the parameter buffers.

        ``head_grads`` pairs each HeadOutput with a gradient array of its raw
        map's shape. Call ``zero_grads`` first unless accumulation across
        images is intended.
        """
        tape.backward([(head.raw, grad) for head, grad in head_grads])

    def count_parameters(self) -> tuple[list[tuple[int, int]], int]:
        """Per-convolution (layer_index, float_count) and the total.

        Counts are those of the arrays each convolution stores in the
        weights file (``ops.ConvParams.stored``).
        """
        per_layer = []
        total = 0
        for i, p in self.conv_layers():
            n = sum(math.prod(shape) for _, shape in p.stored(self.conv_in_channels[i]))
            per_layer.append((i, n))
            total += n
        return per_layer, total
