"""Plain-text network definitions: parsing, validation, rendering, builtins.

The dialect is INI-like: ``[section]`` headers, ``key=value`` lines, ``#`` or
``;`` full-line comments, comma-separated integer lists for multi-valued keys
(``layers=-1,-3,-5,-6``; an empty element is an error). The first section
must be ``[net]``; the recognized layer kinds are convolutional, maxpool,
upsample, route, shortcut and yolo. Anything else is an error, never
silently skipped.

The builtins ``yolov3``, ``yolov3_spp`` and ``yolov3_tiny`` and the toy graph
are one family: a trunk with its taps, a list of necks, and one head loop
that adds each neck's map conv and ``[yolo]`` layer and the lateral between
two heads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ops
from .errors import CfgParseError, GraphValidationError, ShapeError, ValidationError

# Detection-scale anchor priors in input pixels: three (w, h) pairs per head,
# finest first. Nine-anchor set for the full models, six for the tiny one.
COCO_ANCHORS = (10, 13, 16, 30, 33, 23, 30, 61, 62, 45, 59, 119, 116, 90, 156, 198, 373, 326)
TINY_ANCHORS = (10, 14, 23, 27, 37, 58, 81, 82, 135, 169, 344, 319)

HEAD_STRIDES = (8, 16, 32)

# The toy problem's frame side in pixels and its class count, for
# ``toy_graph`` and ``loss.synthetic_dataset``.
TOY_SIZE, TOY_CLASSES = 64, 2


def head_channels(num_classes: int) -> int:
    """Channels of a ``[yolo]`` layer's map: 3 anchors x (4 box terms,
    objectness and ``num_classes`` class scores)."""
    return 3 * (5 + num_classes)


# key -> (value type, default). Types: int, float, ilist (comma ints), word.
# _REQUIRED marks a key the section must give; a None default is computed by
# _finalize from the section's other keys.
_REQUIRED = object()
_SCHEMAS = {
    "net": {"width": ("int", _REQUIRED), "height": ("int", _REQUIRED),
            "channels": ("int", _REQUIRED)},
    "convolutional": {
        "filters": ("int", _REQUIRED),
        "size": ("int", _REQUIRED),
        "stride": ("int", 1),
        "pad": ("int", 1),
        "batch_normalize": ("int", 0),
        "activation": ("word", "linear"),
    },
    "maxpool": {"size": ("int", _REQUIRED), "stride": ("int", 1), "padding": ("int", None)},
    "upsample": {"stride": ("int", 2)},
    "route": {"layers": ("ilist", _REQUIRED)},
    "shortcut": {"from": ("int", _REQUIRED), "activation": ("word", "linear")},
    "yolo": {
        "classes": ("int", _REQUIRED),
        "num": ("int", None),
        "mask": ("ilist", _REQUIRED),
        "anchors": ("ilist", _REQUIRED),
        "ignore_thresh": ("float", 0.5),
    },
}


@dataclass
class LayerSpec:
    """One parsed section: its kind, normalized attributes, and source line."""

    kind: str
    attrs: dict = field(default_factory=dict)
    source_line: int = 0


@dataclass
class ModelGraph:
    """Validated layer list plus the net-level input geometry.

    ``parse_cfg``, ``builtin_graph`` and ``toy_graph`` make their graphs
    through one builder, which fills each section's defaults and checks it,
    then checks the references. Route and shortcut references are kept as
    written (a negative one counts back from the layer that holds it);
    :func:`layer_inputs` resolves them, and the builder rejects any that
    does not name an earlier layer, so the layer DAG is acyclic.
    """

    net: dict
    layers: list[LayerSpec] = field(default_factory=list)

    @property
    def input_width(self) -> int:
        return self.net["width"]

    @property
    def input_height(self) -> int:
        return self.net["height"]

    @property
    def input_channels(self) -> int:
        return self.net["channels"]


def layer_inputs(graph: ModelGraph) -> list[tuple[int, ...]]:
    """Each layer's inputs as absolute output indices, -1 for the image.

    A route reads its ``layers``, a shortcut the previous output and its
    ``from``, any other layer the previous output. This is the one place
    route and shortcut references are resolved.
    """
    inputs = []
    for i, layer in enumerate(graph.layers):
        if layer.kind == "route":
            refs = layer.attrs["layers"]
        elif layer.kind == "shortcut":
            refs = (-1, layer.attrs["from"])
        else:
            refs = (-1,)
        inputs.append(tuple(i + r if r < 0 else r for r in refs))
    return inputs


def _parse_value(kind, key, raw, line):
    vtype = _SCHEMAS[kind][key][0]
    try:
        if vtype == "int":
            return int(raw)
        if vtype == "float":
            return float(raw)
        if vtype == "ilist":
            # an empty value is the empty list; an empty element is an error
            return [int(tok) for tok in raw.split(",")] if raw else []
        return raw
    except ValueError:
        raise CfgParseError(f"key {key!r} expects {vtype} value, got {raw!r}", line) from None


def _layer_rule(line, check, *args) -> None:
    """Run one of ``ops``' layer rules on a section's values; what it
    rejects is a CfgParseError at the section's ``line``."""
    try:
        check(*args)
    except ShapeError as exc:
        raise CfgParseError(str(exc), line) from None


def _finalize(section: LayerSpec) -> None:
    """Fill defaults and run per-kind semantic checks."""
    kind, attrs, line = section.kind, section.attrs, section.source_line
    for key, (_, default) in _SCHEMAS[kind].items():
        if key not in attrs:
            if default is _REQUIRED:
                raise CfgParseError(f"[{kind}] section missing required key {key!r}", line)
            if default is not None:
                attrs[key] = default
    if kind == "net":
        for key in ("width", "height", "channels"):
            if attrs[key] < 1:
                raise CfgParseError(f"net {key} must be >= 1", line)
    elif kind == "convolutional":
        if attrs["filters"] < 1:
            raise CfgParseError("filters must be >= 1", line)
        _layer_rule(line, ops.check_conv_geometry,
                    attrs["size"], attrs["stride"], attrs["activation"])
        if attrs["pad"] not in (0, 1):
            raise CfgParseError("pad is a 0/1 flag", line)
        if attrs["pad"] == 0 and attrs["size"] > 1:
            raise CfgParseError("pad=0 with size>1 breaks the same-padding convention", line)
        if attrs["batch_normalize"] not in (0, 1):
            raise CfgParseError("batch_normalize is a 0/1 flag", line)
    elif kind == "maxpool":
        attrs.setdefault("padding", ops.same_pad(attrs["size"]))
        _layer_rule(line, ops.check_pool_geometry,
                    attrs["size"], attrs["stride"], attrs["padding"])
    elif kind == "upsample":
        if attrs["stride"] != 2:
            raise CfgParseError("only stride-2 upsampling is supported", line)
    elif kind == "route":
        if not attrs["layers"]:
            raise CfgParseError("route needs at least one layer reference", line)
    elif kind == "shortcut":
        if attrs["activation"] != "linear":
            raise CfgParseError("shortcut supports only linear activation", line)
    elif kind == "yolo":
        anchors, mask = attrs["anchors"], attrs["mask"]
        if len(anchors) % 2 != 0 or not anchors:
            raise CfgParseError("anchors must be a flat, even-length w,h list", line)
        if min(anchors) <= 0:
            raise CfgParseError(f"anchors must be > 0 pixels, got {min(anchors)}", line)
        attrs.setdefault("num", len(anchors) // 2)
        if attrs["num"] != len(anchors) // 2:
            raise CfgParseError("num must equal the number of anchor pairs", line)
        if len(mask) != 3:
            raise CfgParseError("yolo mask must select exactly 3 anchors", line)
        if any(m < 0 or m >= len(anchors) // 2 for m in mask):
            raise CfgParseError("yolo mask index out of anchor range", line)
        if attrs["classes"] < 1:
            raise CfgParseError("classes must be >= 1", line)
        if not 0 <= attrs["ignore_thresh"] <= 1:
            raise CfgParseError("ignore_thresh is an IoU, in [0, 1]", line)


def _validate_structure(graph: ModelGraph) -> None:
    classes_seen = set()
    for i, (layer, inputs) in enumerate(zip(graph.layers, layer_inputs(graph))):
        if layer.kind in ("route", "shortcut"):
            refs = layer.attrs["layers"] if layer.kind == "route" else [layer.attrs["from"]]
            # a shortcut's first input, the previous output, is no reference
            for ref, j in zip(refs, inputs[-len(refs):]):
                if not 0 <= j < i:
                    raise CfgParseError(
                        f"{layer.kind} reference {ref} does not resolve to an earlier layer",
                        layer.source_line,
                    )
        elif layer.kind == "yolo":
            classes_seen.add(layer.attrs["classes"])
    if len(classes_seen) > 1:
        raise CfgParseError(f"yolo layers disagree on class count: {sorted(classes_seen)}")


def _build(sections: list[LayerSpec]) -> ModelGraph:
    """The one way a graph is made: ``sections`` are ``[net]`` then the
    layers; each gets its defaults and per-kind checks, then the graph's
    references and class count are checked across them."""
    for section in sections:
        _finalize(section)
    graph = ModelGraph(net=sections[0].attrs, layers=sections[1:])
    _validate_structure(graph)
    return graph


def parse_cfg(text: str) -> ModelGraph:
    """Parse network-definition text into a validated :class:`ModelGraph`."""
    sections: list[LayerSpec] = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] in "#;":
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise CfgParseError(f"malformed section header {line!r}", lineno)
            name = line[1:-1].strip()
            if name not in _SCHEMAS:
                raise CfgParseError(f"unknown section [{name}]", lineno)
            if not sections and name != "net":
                raise CfgParseError("first section must be [net]", lineno)
            if sections and name == "net":
                raise CfgParseError("duplicate [net] section", lineno)
            current = LayerSpec(name, {}, lineno)
            sections.append(current)
            continue
        if "=" not in line:
            raise CfgParseError(f"expected key=value, got {line!r}", lineno)
        if current is None:
            raise CfgParseError("key=value before any section header", lineno)
        key, _, raw_value = line.partition("=")
        key, raw_value = key.strip(), raw_value.strip()
        kind = current.kind
        if key not in _SCHEMAS[kind]:
            raise CfgParseError(f"key {key!r} is not valid in [{kind}]", lineno)
        if key in current.attrs:
            raise CfgParseError(f"duplicate key {key!r}", lineno)
        current.attrs[key] = _parse_value(kind, key, raw_value, lineno)

    if not sections:
        raise CfgParseError("empty definition: missing [net] section")
    return _build(sections)


def render_cfg(graph: ModelGraph) -> str:
    """Serialize a graph back to definition text. parse(render(g)) == g."""
    out = ["[net]"]
    for key in _SCHEMAS["net"]:
        out.append(f"{key}={graph.net[key]}")
    for layer in graph.layers:
        out.append("")
        out.append(f"[{layer.kind}]")
        for key in _SCHEMAS[layer.kind]:
            if key not in layer.attrs:
                continue
            value = layer.attrs[key]
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            out.append(f"{key}={value}")
    return "\n".join(out) + "\n"


def graph_equal(a: ModelGraph, b: ModelGraph) -> bool:
    """Structural equality: net attributes and per-layer kind/attrs (not lines)."""
    if a.net != b.net or len(a.layers) != len(b.layers):
        return False
    return all(
        la.kind == lb.kind and la.attrs == lb.attrs for la, lb in zip(a.layers, b.layers)
    )


def _window(i, prev, size, stride, pad) -> tuple[int, int]:
    """``ops.window_output`` over the (C, H, W) map ``prev``; what it
    rejects is layer ``i``'s GraphValidationError."""
    try:
        return ops.window_output(prev[1], prev[2], size, stride, pad)
    except ShapeError as exc:
        raise GraphValidationError(f"layer {i}: {exc}") from None


def shape_check(graph: ModelGraph, width: int, height: int) -> list[tuple[int, int, int]]:
    """Propagate (channels, H, W) through every layer for the given input size.

    Raises GraphValidationError on shortcut shape mismatches, route spatial
    mismatches, pool windows larger than their padded input, or a ``[yolo]``
    layer whose channel count or grid stride (an integer in ``HEAD_STRIDES``)
    does not fit the input size, and on a width or height below 1. A graph
    without heads may take any size from 1x1 up.
    """
    if width < 1 or height < 1:
        raise GraphValidationError(f"input size {width}x{height} must be at least 1x1")
    shapes: list[tuple[int, int, int]] = []
    inputs = layer_inputs(graph)
    prev = (graph.input_channels, height, width)
    for i, layer in enumerate(graph.layers):
        a = layer.attrs
        if layer.kind == "convolutional":
            # the parser bars pad=0 with size > 1, so a conv pads as ops does
            shape = (a["filters"], *_window(i, prev, a["size"], a["stride"],
                                            ops.same_pad(a["size"])))
        elif layer.kind == "maxpool":
            shape = (prev[0], *_window(i, prev, a["size"], a["stride"], a["padding"]))
        elif layer.kind == "upsample":
            c, h, w = prev
            shape = (c, 2 * h, 2 * w)
        elif layer.kind == "route":
            refs = inputs[i]
            spatial = shapes[refs[0]][1:]
            for r in refs[1:]:
                if shapes[r][1:] != spatial:
                    raise GraphValidationError(
                        f"layer {i}: route inputs disagree spatially: "
                        f"{shapes[r][1:]} vs {spatial}"
                    )
            shape = (sum(shapes[r][0] for r in refs), *spatial)
        elif layer.kind == "shortcut":
            ref = inputs[i][1]
            if shapes[ref] != prev:
                raise GraphValidationError(
                    f"layer {i}: shortcut shapes differ: {shapes[ref]} vs {prev}"
                )
            shape = prev
        elif layer.kind == "yolo":
            c, h, w = prev
            wanted = head_channels(a["classes"])
            if c != wanted:
                raise GraphValidationError(
                    f"layer {i}: yolo expects {wanted} input channels "
                    f"(3*(5+{a['classes']})), got {c}"
                )
            if height % h or width % w or height // h != width // w:
                raise GraphValidationError(
                    f"layer {i}: yolo grid {h}x{w} is not an integer stride of "
                    f"{height}x{width}"
                )
            if height // h not in HEAD_STRIDES:
                raise GraphValidationError(
                    f"layer {i}: head stride {height // h} not in {HEAD_STRIDES}"
                )
            shape = prev
        else:  # pragma: no cover - parser rejects unknown kinds
            raise GraphValidationError(f"layer {i}: unknown kind {layer.kind!r}")
        shapes.append(shape)
        prev = shape
    return shapes


# ---------------------------------------------------------------------------
# Builtin model graphs
# ---------------------------------------------------------------------------

def _conv(filters, size, stride=1, activation="leaky", batch_normalize=1):
    return LayerSpec("convolutional", {"filters": filters, "size": size, "stride": stride,
                                       "batch_normalize": batch_normalize,
                                       "activation": activation})


def _maxpool(size, stride):
    return LayerSpec("maxpool", {"size": size, "stride": stride})


def _route(*refs):
    return LayerSpec("route", {"layers": list(refs)})


def _darknet53() -> tuple[list[LayerSpec], list[int]]:
    """52-conv residual trunk and its taps, coarse to fine: the ends of its
    stride-16 and stride-8 stages."""
    layers = [_conv(32, 3)]
    ends = []
    for out_ch, repeats in ((64, 1), (128, 2), (256, 8), (512, 8), (1024, 4)):
        layers.append(_conv(out_ch, 3, stride=2))
        for _ in range(repeats):
            layers += [_conv(out_ch // 2, 1), _conv(out_ch, 3),
                       LayerSpec("shortcut", {"from": -3})]
        ends.append(len(layers) - 1)
    return layers, [ends[3], ends[2]]


def _tiny_trunk() -> tuple[list[LayerSpec], list[int]]:
    """Seven 3x3 convs with a max-pool between each two, and its one tap:
    the 256-channel map at stride 16."""
    layers = []
    for filters in (16, 32, 64, 128, 256):
        layers += [_conv(filters, 3), _maxpool(2, 2)]
    # a same-size pool keeps the deepest map at stride 32
    layers += [_conv(512, 3), _maxpool(3, 1), _conv(1024, 3)]
    return layers, [8]


def _neck(filters, spp) -> list[LayerSpec]:
    """One full-model neck: six convs alternating 1x1 at ``filters`` and 3x3
    at twice that, with the pyramid-pooling block after the third if ``spp``."""
    layers = [_conv(filters, 1), _conv(filters * 2, 3), _conv(filters, 1)]
    if spp:
        layers += [_maxpool(5, 1), _route(-2), _maxpool(9, 1), _route(-4), _maxpool(13, 1),
                   _route(-1, -3, -5, -6), _conv(filters, 1)]
    return layers + [_conv(filters * 2, 3), _conv(filters, 1), _conv(filters * 2, 3)]


def _detector(size, trunk, taps, necks, anchors, num_classes) -> ModelGraph:
    """A ``size`` x ``size`` detector: ``trunk``, then per neck, coarse to
    fine, the neck, its linear 1x1 map conv and its ``[yolo]`` layer. The
    coarsest head takes the last three ``anchors`` pairs, the next the three
    before. Between two heads runs the lateral: ``route -4`` back to the
    neck's 1x1 conv before its last 3x3, a 1x1 conv at half that conv's
    width, a 2x upsample and a route that joins the next of ``taps``."""
    layers = list(trunk)
    for k, neck in enumerate(necks):
        if k:
            layers += [_route(-4), _conv(layers[-4].attrs["filters"] // 2, 1),
                       LayerSpec("upsample"), _route(-1, taps[k - 1])]
        mask = list(range(3 * (len(necks) - 1 - k), 3 * (len(necks) - k)))
        layers += [*neck,
                   _conv(head_channels(num_classes), 1, activation="linear", batch_normalize=0),
                   LayerSpec("yolo", {"classes": num_classes, "mask": mask,
                                      "anchors": list(anchors)})]
    return _build([LayerSpec("net", {"width": size, "height": size, "channels": 3}), *layers])


def check_num_classes(num_classes: int) -> None:
    """The class count's range, at least 1: a ValidationError below it."""
    if num_classes < 1:
        raise ValidationError(f"num_classes must be >= 1, got {num_classes}")


def builtin_graph(variant: str, num_classes: int) -> ModelGraph:
    """Construct a builtin detection graph: yolov3, yolov3_spp, or yolov3_tiny."""
    check_num_classes(num_classes)
    if variant == "yolov3_tiny":
        trunk, taps = _tiny_trunk()
        necks = [[_conv(256, 1), _conv(512, 3)], [_conv(256, 3)]]
        anchors = TINY_ANCHORS
    elif variant in ("yolov3", "yolov3_spp"):
        trunk, taps = _darknet53()
        necks = [_neck(512, variant == "yolov3_spp"), _neck(256, False), _neck(128, False)]
        anchors = COCO_ANCHORS
    else:
        raise GraphValidationError(f"unknown model variant {variant!r}")
    return _detector(640, trunk, taps, necks, anchors, num_classes)


def toy_graph() -> ModelGraph:
    """The family's smallest member: a trunk of four 3x3 convs, three of
    them stride 2, and one head straight on it at stride 8, on a
    ``TOY_SIZE`` x ``TOY_SIZE`` input, for ``TOY_CLASSES`` classes, with the
    three finest ``COCO_ANCHORS``."""
    trunk = [_conv(8, 3), *(_conv(filters, 3, stride=2) for filters in (16, 16, 32))]
    return _detector(TOY_SIZE, trunk, [], [[]], COCO_ANCHORS[:6], TOY_CLASSES)
