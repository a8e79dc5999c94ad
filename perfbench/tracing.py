"""Span tracing of yolokit from outside the program, and the per-layer metrics.

The tracer replaces a public function with a wrapper under the name its
caller looks it up by: ``yolokit.cli`` binds most functions with
``from ... import``, ``Network`` reaches kernels through the ``ops`` module,
and ``loss.train_toy`` / ``evaluation.evaluate`` call their helpers as module
globals. A wrapper records a span (name, start, end, parent, request) in
memory; spans are written out once the traced command has finished.

A span that records no call is reported as missing rather than as 0 s, so a
refactor that routes a call around a patched name shows up in the report.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Callable

# Requests: a detect image starts at its read_ppm call; everything else
# (weights load, the prediction file, a training run, an eval run) belongs to
# the command that is running.
IMAGE = "image"
COMMAND = "command"
COMMAND_REQUEST = "cmd0"  # the one traced command


def _conv_counts(args, kwargs, result):
    x, p = args[0], args[1]
    c, h, w = x.shape
    f, k, s = p.filters, p.size, p.stride
    out_h, out_w = result.shape[1], result.shape[2]
    item = x.dtype.itemsize
    kind = "conv1x1" if k == 1 else f"conv{k}x{k}" + ("s2" if s == 2 else "")
    return {
        "gflop": 2.0 * f * c * k * k * out_h * out_w / 1e9,
        "gbytes": item * (c * h * w + f * c * k * k + f * out_h * out_w) / 1e9,
        "kind": kind,
    }


def _weights_counts(args, kwargs, result):
    return {"mb": os.path.getsize(args[1]) / 1e6}


def _decode_counts(args, kwargs, result):
    return {"candidates": len(result)}


def _nms_counts(args, kwargs, result):
    return {"candidates": len(args[0]), "kept": len(result)}


def _match_counts(args, kwargs, result):
    labeled = result[0]
    tp = sum(1 for _, is_tp in labeled if is_tp)
    return {"detections": len(args[0]), "tp": tp, "fp": len(labeled) - tp}


@dataclass(frozen=True)
class Patch:
    span: str              # "<layer module>.<function>"
    module: str            # module whose attribute the caller looks up
    attr: str              # attribute path inside it ("Network.forward")
    counts: Callable[..., dict] | None = None  # (args, kwargs, result) -> span attrs
    request: str | None = None


PATCHES = (
    Patch("cfg.builtin_graph", "yolokit.cli", "builtin_graph"),
    Patch("weights.load_weights_file", "yolokit.cli", "load_weights_file", _weights_counts),
    Patch("ppm.read_ppm", "yolokit.cli", "read_ppm", request=IMAGE),
    Patch("detect.letterbox", "yolokit.cli", "letterbox"),
    Patch("network.forward", "yolokit.network", "Network.forward"),
    Patch("network.backward", "yolokit.network", "Network.backward"),
    Patch("ops.conv2d_forward", "yolokit.ops", "conv2d_forward", _conv_counts),
    Patch("ops.maxpool2d_forward", "yolokit.ops", "maxpool2d_forward"),
    Patch("ops.upsample2x", "yolokit.ops", "upsample2x"),
    Patch("ops.concat_channels", "yolokit.ops", "concat_channels"),
    Patch("ops.shortcut_add", "yolokit.ops", "shortcut_add"),
    Patch("detect.decode", "yolokit.cli", "decode", _decode_counts),
    Patch("detect.nms", "yolokit.cli", "nms", _nms_counts),
    Patch("ppm.render_detections", "yolokit.cli", "render_detections"),
    Patch("ppm.write_ppm", "yolokit.cli", "write_ppm"),
    Patch("evaluation.format_predictions", "yolokit.cli", "format_predictions",
          request=COMMAND),
    Patch("loss.assign_targets", "yolokit.loss", "assign_targets"),
    Patch("loss.total_loss", "yolokit.loss", "total_loss"),
    Patch("loss.loss_gradients", "yolokit.loss", "loss_gradients"),
    Patch("loss.sgd_step", "yolokit.loss", "sgd_step"),
    Patch("evaluation.load_ground_truth", "yolokit.cli", "load_ground_truth"),
    Patch("evaluation.parse_predictions", "yolokit.cli", "parse_predictions"),
    Patch("evaluation.evaluate", "yolokit.cli", "evaluate"),
    Patch("evaluation.match", "yolokit.evaluation", "match", _match_counts),
    Patch("evaluation.write_report_files", "yolokit.cli", "write_report_files"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: str
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans of patched functions; single-threaded, in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.unpatched: list[str] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self._images = 0
        self.request = COMMAND_REQUEST

    def _wrap(self, patch: Patch, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if patch.request == IMAGE:
                tracer.request = f"{COMMAND_REQUEST}/img{tracer._images}"
                tracer._images += 1
            elif patch.request == COMMAND:
                tracer.request = COMMAND_REQUEST
            index = len(tracer.spans)
            span = Span(patch.span, 0.0, 0.0,
                        tracer._stack[-1] if tracer._stack else None, tracer.request)
            tracer.spans.append(span)
            tracer._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if patch.counts is not None:
                span.attrs = patch.counts(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for patch in PATCHES:
            try:
                owner = importlib.import_module(patch.module)
            except ImportError:
                owner = None
            *path, attr = patch.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.unpatched.append(patch.span)
                continue
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(patch, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def to_json(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

CONV_KINDS = ("conv1x1", "conv3x3", "conv3x3s2")

# (name, unit, better). Values are totals over one traced command; gflop and
# gbytes are computed from tensor shapes, not measured.
PER_LAYER = (
    ("ops.gemm_peak_gflops", "GFLOP/s", "higher"),
    ("ops.conv2d_forward.s", "s", "lower"),
    ("ops.conv2d_forward.calls", "count", "lower"),
    ("ops.conv2d_forward.gflop", "GFLOP", "lower"),
    ("ops.conv2d_forward.gbytes", "GB", "lower"),
    ("ops.conv2d_forward.gflops", "GFLOP/s", "higher"),
    ("ops.conv2d_forward.peak_ratio", "ratio", "higher"),
    *(
        metric
        for kind in CONV_KINDS
        for metric in ((f"ops.{kind}.s", "s", "lower"), (f"ops.{kind}.gflops", "GFLOP/s", "higher"))
    ),
    ("ops.maxpool2d_forward.s", "s", "lower"),
    ("ops.upsample2x.s", "s", "lower"),
    ("ops.concat_channels.s", "s", "lower"),
    ("ops.shortcut_add.s", "s", "lower"),
    ("network.forward.s", "s", "lower"),
    ("network.forward.self_s", "s", "lower"),
    ("network.forward.calls", "count", "lower"),
    ("network.backward.s", "s", "lower"),
    ("weights.load_weights_file.s", "s", "lower"),
    ("weights.load_weights_file.mb_per_s", "MB/s", "higher"),
    ("cfg.builtin_graph.s", "s", "lower"),
    ("ppm.read_ppm.s", "s", "lower"),
    ("ppm.render_detections.s", "s", "lower"),
    ("ppm.write_ppm.s", "s", "lower"),
    ("detect.letterbox.s", "s", "lower"),
    ("detect.decode.s", "s", "lower"),
    ("detect.decode.candidates", "count", "higher"),
    ("detect.nms.s", "s", "lower"),
    ("detect.nms.kept", "count", "higher"),
    ("detect.nms.kept_ratio", "ratio", "higher"),
    ("loss.assign_targets.s", "s", "lower"),
    ("loss.total_loss.s", "s", "lower"),
    ("loss.loss_gradients.s", "s", "lower"),
    ("loss.sgd_step.s", "s", "lower"),
    ("loss.loss_ratio", "ratio", "lower"),
    ("evaluation.load_ground_truth.s", "s", "lower"),
    ("evaluation.parse_predictions.s", "s", "lower"),
    ("evaluation.match.s", "s", "lower"),
    ("evaluation.match.detections", "count", "higher"),
    ("evaluation.match.tp", "count", "higher"),
    ("evaluation.match.fp", "count", "lower"),
    ("evaluation.write_report_files.s", "s", "lower"),
    ("evaluation.evaluate.self_s", "s", "lower"),
    ("evaluation.format_predictions.s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

TIMED_SPANS = (
    "ops.maxpool2d_forward", "ops.upsample2x", "ops.concat_channels", "ops.shortcut_add",
    "network.forward", "network.backward", "weights.load_weights_file", "cfg.builtin_graph",
    "ppm.read_ppm", "ppm.render_detections", "ppm.write_ppm", "detect.letterbox",
    "detect.decode", "detect.nms", "loss.assign_targets", "loss.total_loss",
    "loss.loss_gradients", "loss.sgd_step", "evaluation.load_ground_truth",
    "evaluation.parse_predictions", "evaluation.match", "evaluation.write_report_files",
    "evaluation.format_predictions",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _totals(spans: list[dict]):
    """Per span name: total seconds, self seconds, calls, summed attributes."""
    seconds: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    attrs: dict[tuple[str, str], float] = defaultdict(float)
    for span in spans:
        name = span["name"]
        duration = span["end"] - span["start"]
        seconds[name] += duration
        self_s[name] += duration
        calls[name] += 1
        if span["parent"] is not None:
            self_s[spans[span["parent"]]["name"]] -= duration
        for key, value in span["attrs"].items():
            if key != "kind":
                attrs[name, key] += value
        kind = span["attrs"].get("kind")
        if kind is not None:
            seconds[f"ops.{kind}"] += duration
            attrs[f"ops.{kind}", "gflop"] += span["attrs"]["gflop"]
    return seconds, self_s, calls, attrs


def largest_self_times(spans: list[dict], n: int) -> list[tuple[str, float]]:
    """The n span names with the most self time, largest first."""
    self_s = _totals(spans)[1]
    return sorted(self_s.items(), key=lambda item: -item[1])[:n]


def summarize(spans: list[dict], peak_gflops: float) -> dict[str, float]:
    """Span metrics of one traced command: totals, self times, counts, rates.

    Self time is a span's duration minus the durations of its direct
    children. ``loss.loss_ratio`` and ``trace.overhead_ratio`` do not come
    from spans and are left to the caller.
    """
    seconds, self_s, calls, attrs = _totals(spans)

    def rate(name: str, key: str) -> float:
        return _ratio(attrs[name, key], seconds[name])

    conv = "ops.conv2d_forward"
    out = {
        "ops.gemm_peak_gflops": peak_gflops,
        f"{conv}.s": seconds[conv],
        f"{conv}.calls": calls[conv],
        f"{conv}.gflop": attrs[conv, "gflop"],
        f"{conv}.gbytes": attrs[conv, "gbytes"],
        f"{conv}.gflops": rate(conv, "gflop"),
        f"{conv}.peak_ratio": _ratio(rate(conv, "gflop"), peak_gflops),
    }
    for kind in CONV_KINDS:
        out[f"ops.{kind}.s"] = seconds[f"ops.{kind}"]
        out[f"ops.{kind}.gflops"] = rate(f"ops.{kind}", "gflop")
    for name in TIMED_SPANS:
        out[f"{name}.s"] = seconds[name]
    out["network.forward.self_s"] = self_s["network.forward"]
    out["network.forward.calls"] = calls["network.forward"]
    out["weights.load_weights_file.mb_per_s"] = rate("weights.load_weights_file", "mb")
    out["detect.decode.candidates"] = attrs["detect.decode", "candidates"]
    out["detect.nms.kept"] = attrs["detect.nms", "kept"]
    out["detect.nms.kept_ratio"] = _ratio(attrs["detect.nms", "kept"],
                                          attrs["detect.nms", "candidates"])
    for key in ("detections", "tp", "fp"):
        out[f"evaluation.match.{key}"] = attrs["evaluation.match", key]
    out["evaluation.evaluate.self_s"] = self_s["evaluation.evaluate"]
    return out


def missing_spans(spans: list[dict], unpatched: list[str],
                  expected: tuple[str, ...]) -> tuple[list[str], list[str]]:
    """(missing, not exercised): expected spans with no call, and the others.

    A span is missing when the workload should reach it but no call was
    recorded, including a patch whose target name no longer exists.
    """
    recorded = {span["name"] for span in spans}
    missing = sorted(set(unpatched) | {name for name in expected if name not in recorded})
    not_run = sorted({p.span for p in PATCHES} - recorded - set(expected) - set(missing))
    return missing, not_run
