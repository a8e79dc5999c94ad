"""Definition-text parsing, shape propagation, and the builtin graphs."""

import numpy as np
import pytest

from yolokit import cfg, ops
from yolokit.cfg import (
    COCO_ANCHORS,
    builtin_graph,
    graph_equal,
    layer_inputs,
    parse_cfg,
    render_cfg,
    shape_check,
    toy_graph,
)
from yolokit.errors import CfgParseError, GraphValidationError, ShapeError, ValidationError
from yolokit.network import Network

NET = """\
[net]
width=64
height=64
channels=3
"""

MINIMAL = NET + """
[convolutional]
filters=4
size=3
stride=1
pad=1
"""

SPP_SNIPPET = """\
[net]
width=64
height=64
channels=3

[convolutional]
filters=8
size=1
stride=1
pad=1
batch_normalize=1
activation=leaky

[maxpool]
size=5
stride=1

[route]
layers=-2

[maxpool]
size=9
stride=1

[route]
layers=-4

[maxpool]
size=13
stride=1

[route]
layers=-1,-3,-5,-6
"""


class TestParse:
    def test_minimal_file(self):
        graph = parse_cfg(MINIMAL)
        assert len(graph.layers) == 1
        assert graph.net == {"width": 64, "height": 64, "channels": 3}
        shapes = shape_check(graph, 64, 64)
        assert shapes == [(4, 64, 64)]

    def test_defaults_filled(self):
        layer = parse_cfg(MINIMAL).layers[0]
        assert layer.attrs["activation"] == "linear"
        assert layer.attrs["batch_normalize"] == 0

    def test_unknown_section_names_line(self):
        with pytest.raises(CfgParseError) as err:
            parse_cfg("[net]\nwidth=64\nheight=64\nchannels=3\n[conv]\nfilters=1\n")
        assert "conv" in str(err.value)
        assert err.value.line == 5

    def test_first_section_must_be_net(self):
        with pytest.raises(CfgParseError):
            parse_cfg("[convolutional]\nfilters=1\nsize=1\n")

    def test_malformed_key_value(self):
        with pytest.raises(CfgParseError) as err:
            parse_cfg("[net]\nwidth=64\nheight=64\nchannels=3\nbogus line\n")
        assert err.value.line == 5

    def test_comments_and_blanks_ignored(self):
        text = MINIMAL.replace("[convolutional]", "# a comment\n; another\n\n[convolutional]")
        assert graph_equal(parse_cfg(text), parse_cfg(MINIMAL))

    def test_unknown_key_rejected(self):
        with pytest.raises(CfgParseError):
            parse_cfg(MINIMAL + "momentum=0.9\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(CfgParseError):
            parse_cfg(MINIMAL + "filters=8\n")

    def test_route_forward_reference_rejected(self):
        text = MINIMAL + "\n[route]\nlayers=5\n"
        with pytest.raises(CfgParseError):
            parse_cfg(text)

    # (text before the bad section, the section, the reference it names):
    # forward references, and references that reach back past layer 0
    @pytest.mark.parametrize("head, section, ref", [
        (MINIMAL, "[route]\nlayers=5", "route reference 5"),
        (MINIMAL, "[route]\nlayers=-1,5", "route reference 5"),
        (MINIMAL, "[route]\nlayers=1,-1", "route reference 1"),
        (NET, "[route]\nlayers=-1", "route reference -1"),
        (NET, "[shortcut]\nfrom=-1", "shortcut reference -1"),
        (MINIMAL, "[route]\nlayers=-3", "route reference -3"),
        (MINIMAL, "[shortcut]\nfrom=3", "shortcut reference 3"),
    ])
    def test_bad_reference_names_it_and_its_line(self, head, section, ref):
        line = head.count("\n") + 2
        with pytest.raises(CfgParseError) as err:
            parse_cfg(head + "\n" + section + "\n")
        assert str(err.value) == f"line {line}: {ref} does not resolve to an earlier layer"
        assert err.value.line == line

    def test_bad_value_type(self):
        with pytest.raises(CfgParseError):
            parse_cfg(MINIMAL.replace("filters=4", "filters=many"))

    @pytest.mark.parametrize("key, value", [
        ("layers", "-1,-3,-5,-6"), ("mask", "0,1,2"), ("anchors", "10,13,16,30,33,23"),
    ])
    @pytest.mark.parametrize("where", ["leading", "doubled", "trailing"])
    def test_empty_list_element_rejected_at_its_line(self, key, value, where):
        # a list element is never skipped: ",1", "1,,2" and "1," name their line
        broken = {"leading": "," + value, "doubled": value.replace(",", ",,", 1),
                  "trailing": value + ","}[where]
        text = SPP_SNIPPET + "\n" + render_cfg(toy_graph()).partition("\n\n")[2]
        assert text.count(f"{key}={value}\n") == 1
        line = text.splitlines().index(f"{key}={value}") + 1
        parse_cfg(text)
        with pytest.raises(CfgParseError) as err:
            parse_cfg(text.replace(f"{key}={value}\n", f"{key}={broken}\n"))
        assert err.value.line == line
        assert str(err.value) == f"line {line}: key {key!r} expects ilist value, got {broken!r}"

    # (section kind, the keys that break one of its conv or pool rules)
    @pytest.mark.parametrize("kind, bad", [
        ("convolutional", {"size": 2}),
        ("convolutional", {"size": 0}),
        ("convolutional", {"size": -3}),
        ("convolutional", {"stride": 3}),
        ("convolutional", {"stride": 0}),
        ("convolutional", {"activation": "relu"}),
        ("maxpool", {"size": 0}),
        ("maxpool", {"size": -1, "padding": 0}),
        ("maxpool", {"stride": 0}),
        ("maxpool", {"padding": -1}),
        ("maxpool", {"padding": 3}),
    ])
    def test_layer_rule_is_the_kernels_at_the_sections_line(self, kind, bad):
        # the parser states no conv or pool rule of its own: it names the
        # section's line and gives the kernel's error for that geometry, a
        # conv's where its ConvParams is made
        good = {"convolutional": {"filters": 4, "size": 3, "stride": 1, "activation": "linear"},
                "maxpool": {"size": 3, "stride": 1, "padding": 1}}
        a = {**good[kind], **bad}
        with pytest.raises(ShapeError) as want:
            if kind == "convolutional":
                ops.ConvParams(a["filters"], a["size"], a["stride"],
                               activation=a["activation"], in_channels=3)
            else:
                ops.maxpool2d_forward(np.zeros((3, 8, 8)), a["size"], a["stride"], a["padding"])
        line = NET.count("\n") + 2
        section = f"[{kind}]\n" + "".join(f"{key}={value}\n" for key, value in a.items())
        with pytest.raises(CfgParseError) as err:
            parse_cfg(NET + "\n" + section)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {want.value}"

    @pytest.mark.parametrize("value", ["1.5", "-0.1", "nan"])
    def test_ignore_thresh_outside_unit_interval_rejected(self, value):
        text = render_cfg(toy_graph()).replace("ignore_thresh=0.5", f"ignore_thresh={value}")
        with pytest.raises(CfgParseError, match="ignore_thresh"):
            parse_cfg(text)

    @pytest.mark.parametrize("value", ["-10", "0"])
    def test_non_positive_anchor_rejected(self, value):
        # a negative prior once trained to NaN weights behind a finite loss
        text = render_cfg(toy_graph())
        line = text.splitlines().index("[yolo]") + 1
        with pytest.raises(CfgParseError, match="anchors") as err:
            parse_cfg(text.replace("anchors=10,", f"anchors={value},"))
        assert err.value.line == line

    def test_spp_snippet_concat(self):
        graph = parse_cfg(SPP_SNIPPET)
        shapes = shape_check(graph, 64, 64)
        # the final 4-way route concatenates identity + 5/9/13 pooled branches
        assert shapes[-1] == (4 * 8, 64, 64)
        inputs = layer_inputs(graph)
        # conv; pool5 and route -2 read the conv; pool9; route -4; pool13
        assert inputs == [(-1,), (0,), (0,), (2,), (0,), (4,), (5, 3, 1, 0)]
        refs = inputs[-1]
        kinds = [graph.layers[r].kind for r in refs]
        sizes = [graph.layers[r].attrs.get("size") for r in refs]
        assert kinds == ["maxpool", "maxpool", "maxpool", "convolutional"]
        assert sizes[:3] == [13, 9, 5]


class TestShapeCheck:
    def test_indivisible_input_rejected(self):
        # the heads' own stride checks reject it; no global size rule does
        with pytest.raises(GraphValidationError, match="stride"):
            shape_check(builtin_graph("yolov3_tiny", 80), 100, 100)

    @pytest.mark.parametrize("variant,size", [
        ("yolov3", 100), ("yolov3", 40), ("yolov3", 48),
        ("yolov3_tiny", 40), ("yolov3_tiny", 48), ("toy", 100),
    ])
    def test_head_strides_reject_sizes(self, variant, size):
        graph = toy_graph() if variant == "toy" else builtin_graph(variant, 80)
        with pytest.raises(GraphValidationError):
            shape_check(graph, size, size)

    def test_pool_window_error_is_the_kernels(self):
        graph = parse_cfg(MINIMAL + "\n[maxpool]\nsize=5\nstride=1\npadding=0\n")
        with pytest.raises(ShapeError) as want:
            ops.maxpool2d_forward(np.zeros((4, 2, 3)), 5, 1, 0)
        with pytest.raises(GraphValidationError) as err:
            shape_check(graph, 3, 2)
        assert str(err.value) == f"layer 1: {want.value}"
        assert shape_check(graph, 5, 5)[1] == (4, 1, 1)

    def test_headless_graph_takes_any_size(self):
        assert shape_check(parse_cfg(MINIMAL), 7, 7) == [(4, 7, 7)]
        assert shape_check(parse_cfg(MINIMAL), 1, 1) == [(4, 1, 1)]

    @pytest.mark.parametrize("variant", ["toy", "headless"])
    @pytest.mark.parametrize("width, height", [(0, 0), (-8, -8), (64, 0), (0, 64), (7, -1)])
    def test_size_below_one_rejected(self, variant, width, height):
        # the size rule's first bound, before any layer divides by the size
        graph = toy_graph() if variant == "toy" else parse_cfg(MINIMAL)
        with pytest.raises(GraphValidationError, match="at least 1x1"):
            shape_check(graph, width, height)

    def test_deepest_map_at_256(self):
        graph = builtin_graph("yolov3", 80)
        shapes = shape_check(graph, 256, 256)
        grids = sorted(
            shapes[i][1] for i, l in enumerate(graph.layers) if l.kind == "yolo"
        )
        assert grids == [8, 16, 32]

    def test_grids_at_640(self):
        graph = builtin_graph("yolov3", 80)
        shapes = shape_check(graph, 640, 640)
        grids = sorted(
            shapes[i][1] for i, l in enumerate(graph.layers) if l.kind == "yolo"
        )
        assert grids == [20, 40, 80]

    def test_shortcut_shape_mismatch(self):
        text = (
            MINIMAL
            + "\n[convolutional]\nfilters=2\nsize=3\nstride=1\npad=1\n\n[shortcut]\nfrom=-2\n"
        )
        with pytest.raises(GraphValidationError):
            shape_check(parse_cfg(text), 64, 64)

    def test_yolo_channel_mismatch(self):
        text = MINIMAL + "\n[yolo]\nclasses=2\nmask=0,1,2\nanchors=10,13,16,30,33,23\n"
        with pytest.raises(GraphValidationError):
            shape_check(parse_cfg(text), 64, 64)  # 4 channels != 21


class TestBuiltins:
    def test_yolo_input_channels_80(self):
        graph = builtin_graph("yolov3", 80)
        shapes = shape_check(graph, 640, 640)
        for i, layer in enumerate(graph.layers):
            if layer.kind == "yolo":
                assert shapes[i][0] == 255

    def test_yolo_input_channels_10(self):
        graph = builtin_graph("yolov3_spp", 10)
        shapes = shape_check(graph, 640, 640)
        for i, layer in enumerate(graph.layers):
            if layer.kind == "yolo":
                assert shapes[i][0] == 45

    def test_backbone_has_52_convs(self):
        graph = builtin_graph("yolov3", 80)
        last_shortcut = max(
            i for i, l in enumerate(graph.layers) if l.kind == "shortcut"
        )
        convs = sum(
            1 for l in graph.layers[: last_shortcut + 1] if l.kind == "convolutional"
        )
        assert convs == 52

    def test_render_parse_round_trip_handwritten(self):
        graph = parse_cfg(SPP_SNIPPET)
        assert graph_equal(parse_cfg(render_cfg(graph)), graph)

    @pytest.mark.parametrize("variant", ["yolov3", "yolov3_spp", "yolov3_tiny"])
    def test_render_parse_round_trip(self, variant):
        graph = builtin_graph(variant, 7)
        reparsed = parse_cfg(render_cfg(graph))
        assert graph_equal(reparsed, graph)
        assert graph_equal(parse_cfg(render_cfg(reparsed)), reparsed)

    def test_spp_differs_only_by_block(self):
        plain = builtin_graph("yolov3", 10)
        spp = builtin_graph("yolov3_spp", 10)
        assert len(spp.layers) - len(plain.layers) == 7
        prefix = 0
        while prefix < len(plain.layers) and plain.layers[prefix].attrs == spp.layers[
            prefix
        ].attrs and plain.layers[prefix].kind == spp.layers[prefix].kind:
            prefix += 1
        block = spp.layers[prefix : prefix + 7]
        assert [l.kind for l in block] == [
            "maxpool", "route", "maxpool", "route", "maxpool", "route", "convolutional",
        ]
        assert [l.attrs["size"] for l in block if l.kind == "maxpool"] == [5, 9, 13]
        for a, b in zip(plain.layers[prefix:], spp.layers[prefix + 7 :]):
            assert a.kind == b.kind and a.attrs == b.attrs

    def test_tiny_layout(self):
        graph = builtin_graph("yolov3_tiny", 10)
        kinds = [l.kind for l in graph.layers]
        assert kinds.count("convolutional") == 13
        assert kinds.count("maxpool") == 6
        shapes = shape_check(graph, 640, 640)
        strides = sorted(
            640 // shapes[i][1] for i, l in enumerate(graph.layers) if l.kind == "yolo"
        )
        assert strides == [16, 32]

    @pytest.mark.parametrize("variant", ["yolov3", "yolov3_spp", "yolov3_tiny"])
    def test_builtins_pass_the_parser_rules(self, variant, monkeypatch):
        # a bad prior fails a builtin as it fails a parsed definition
        monkeypatch.setattr(cfg, "COCO_ANCHORS", (-10,) + cfg.COCO_ANCHORS[1:])
        monkeypatch.setattr(cfg, "TINY_ANCHORS", (-10,) + cfg.TINY_ANCHORS[1:])
        with pytest.raises(CfgParseError, match="anchors must be > 0"):
            builtin_graph(variant, 10)

    def test_bad_class_count(self):
        with pytest.raises(ValidationError):
            builtin_graph("yolov3", 0)

    def test_toy_graph_is_built_like_the_builtins(self):
        # the three finest COCO priors, one stride-8 head, and text that
        # parses back to the same graph
        graph = toy_graph()
        (head,) = [layer for layer in graph.layers if layer.kind == "yolo"]
        assert head.attrs["anchors"] == list(COCO_ANCHORS[:6])
        assert head.attrs["mask"] == [0, 1, 2] and head.attrs["classes"] == 2
        assert shape_check(graph, 64, 64)[-1] == (21, 8, 8)
        assert graph_equal(parse_cfg(render_cfg(graph)), graph)

    @pytest.mark.parametrize("variant, heads", [
        ("yolov3", [82, 94, 106]), ("yolov3_spp", [89, 101, 113]), ("yolov3_tiny", [16, 23]),
    ])
    def test_yolo_layers_where_darknet_has_them(self, variant, heads):
        graph = builtin_graph(variant, 80)
        assert [i for i, layer in enumerate(graph.layers) if layer.kind == "yolo"] == heads
        assert heads[-1] == len(graph.layers) - 1

    @pytest.mark.parametrize("variant, routes", [
        ("yolov3", [[-4], [-1, 61], [-4], [-1, 36]]),
        ("yolov3_spp", [[-2], [-4], [-1, -3, -5, -6], [-4], [-1, 61], [-4], [-1, 36]]),
        ("yolov3_tiny", [[-4], [-1, 8]]),
    ])
    def test_route_references_are_darknets(self, variant, routes):
        graph = builtin_graph(variant, 80)
        assert [layer.attrs["layers"] for layer in graph.layers
                if layer.kind == "route"] == routes

    @pytest.mark.parametrize("variant, total", [
        # 62,001,757 floats and the 20-byte header are the 248,007,048 bytes
        # of darknet's published yolov3.weights
        ("yolov3", 62_001_757), ("yolov3_spp", 63_052_381), ("yolov3_tiny", 8_858_734),
    ])
    def test_parameter_totals_at_80_classes(self, variant, total):
        assert Network(builtin_graph(variant, 80)).count_parameters()[1] == total

    def test_unknown_variant(self):
        with pytest.raises(GraphValidationError):
            builtin_graph("yolov9", 10)
