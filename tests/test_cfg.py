"""Definition-text parsing, shape propagation, and the builtin graphs."""

import pytest

from yolokit.cfg import (
    builtin_graph,
    graph_equal,
    parse_cfg,
    render_cfg,
    resolve_ref,
    shape_check,
)
from yolokit.errors import CfgParseError, GraphValidationError, ValidationError
from yolokit.loss import toy_graph

MINIMAL = """\
[net]
width=64
height=64
channels=3

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

    def test_bad_value_type(self):
        with pytest.raises(CfgParseError):
            parse_cfg(MINIMAL.replace("filters=4", "filters=many"))

    @pytest.mark.parametrize("value", ["1.5", "-0.1", "nan"])
    def test_ignore_thresh_outside_unit_interval_rejected(self, value):
        text = render_cfg(toy_graph()).replace("ignore_thresh=0.5", f"ignore_thresh={value}")
        with pytest.raises(CfgParseError, match="ignore_thresh"):
            parse_cfg(text)

    def test_spp_snippet_concat(self):
        graph = parse_cfg(SPP_SNIPPET)
        shapes = shape_check(graph, 64, 64)
        # the final 4-way route concatenates identity + 5/9/13 pooled branches
        assert shapes[-1] == (4 * 8, 64, 64)
        route = graph.layers[-1]
        refs = [resolve_ref(len(graph.layers) - 1, r) for r in route.attrs["layers"]]
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

    def test_bad_class_count(self):
        with pytest.raises(ValidationError):
            builtin_graph("yolov3", 0)

    def test_unknown_variant(self):
        with pytest.raises(GraphValidationError):
            builtin_graph("yolov9", 10)
