"""Columnar detections: the parser against its loop oracle, the writer round
trip, non-finite input, overflowing extents, and objects only at the edges."""

import io
import os
import sys
import warnings
from collections import Counter

import numpy as np
import pytest

from yolokit import cli, evaluation
from yolokit.cfg import toy_graph
from yolokit.detect import IDENTITY_TRANSFORM, Box, Detection, Detections, decode, nms
from yolokit.errors import AnnotationError, ValidationError
from yolokit.evaluation import (
    GroundTruth,
    GroundTruthBox,
    evaluate,
    format_predictions,
    load_ground_truth,
    match,
    parse_predictions,
    parse_visdrone,
)
from yolokit.loss import ToyTrainConfig, synthetic_dataset, train_toy
from yolokit.network import HeadOutput
from yolokit.oracles import (
    brute_force_evaluate,
    match_loop,
    parse_predictions_loop,
    parse_visdrone_loop,
)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden"))
import regenerate  # noqa: E402

GOOD = "im0 1 0.5 10 10 5 5"

# Lines both parsers must accept or reject alike, with the same line and message.
EDGE_TEXTS = [
    "",
    "\n\n   \n",
    GOOD,                                               # no final newline
    f"{GOOD}\n\n  \n\t\nim1 2 0.25 1 2 3 4\n",          # blank lines
    "im0\t1\t0.5\t10\t10\t5\t5\n im1  0 1 1 1 1 1 \n",  # tabs, extra spaces
    f"{GOOD}\r\nim1 0 1 1 1 1 1\r\n",                   # CRLF
    "im0 +1 +0.5 +10 10 5 5\n",
    "im0 1_0 0.5 1_0.5 10 5 5\n",
    "im0 1 .5 10 10 .5 5.\n",
    "im0 1 1e-3 1E2 -1e-300 5e-324 1e308\n",
    "im0 -0 -0 -0 -0.0 5 5\n",
    "im0 0 0 0 0 1 1\nim0 0 1 0 0 1 1\n",              # scores at both ends
    "im0 99999999999999999999 0.5 1 1 1 1\n",          # beyond int64
    "im0 -99999999999999999999 0.5 1 1 1 1\n",
    "im0 9223372036854775807 0.5 1 1 1 1\n",           # int64 max is fine
    "im0 99999999999999999999 0.5 x 1 1 1\n",          # the float error comes first
    f"{GOOD}\n{GOOD}\nim0 1 0.5 10 10 5\n",             # wrong count, line 3
    f"{GOOD}\nim0 1 0.5 10 10 5 5 6\n",
    "im0\n",
    f"{GOOD}\nim0 -1 0.5 10 10 5 5\n",                  # negative class
    "im0 1 1.0000001 10 10 5 5\n",
    "im0 1 -0.0000001 10 10 5 5\n",
    "im0 1.0 0.5 10 10 5 5\n",                          # int() rejects these
    "im0 0x1 0.5 10 10 5 5\n",
    "im0 1 0.5 10 10 five 5\n",
    "im0 1 0.5 10 10 -0 5\n",                           # zero extents
    "im0 1 0.5 10 10 5 -5\n",
    "im0 -1 x 10 10 5 5\n",                             # conversion before range
    "im0 -1 2 10 10 -5 5\n",                            # class before score before extent
    "im0 1 2 10 10 -5 5\n",
    f"{GOOD}\nim0 1 0.5 10 10 -5 5\nim0 1 0.5 10\n",    # the first bad line wins
    f"{GOOD}\fim1 1 0.5 10 10 5 5\x1eim2 1 0.5 1 1 1 1\n",  # other line breaks
] + [
    " ".join(["im0", "1"] + ["0.5", "10", "10", "5", "5"][:k] + [bad]
             + ["0.5", "10", "10", "5", "5"][k + 1 :]) + "\n"
    for k in range(5)
    for bad in ("nan", "inf", "-inf", "NaN", "Infinity")
]


def _rows(detections):
    """Each detection's fields, floats by their bits (so -0.0 differs from 0.0)."""
    return [(d.image_id, d.class_index, d.score.hex(), d.box.x.hex(), d.box.y.hex(),
             d.box.w.hex(), d.box.h.hex()) for d in detections]


def _outcome(parse, text):
    try:
        return "ok", _rows(parse(text))
    except AnnotationError as exc:
        return "error", exc.line, str(exc)


class TestParserOracle:
    @pytest.mark.parametrize("text", EDGE_TEXTS)
    def test_same_verdict_as_loop(self, text):
        assert _outcome(parse_predictions, text) == _outcome(parse_predictions_loop, text)

    def test_corpus_has_both_verdicts(self):
        verdicts = Counter(_outcome(parse_predictions_loop, t)[0] for t in EDGE_TEXTS)
        assert verdicts["ok"] >= 12 and verdicts["error"] >= 30

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 64])
    def test_block_size_changes_nothing(self, monkeypatch, block):
        rng = np.random.default_rng(block)
        lines = [f"im{k % 7} {k % 4} {rng.uniform():.3f} 10 20 3 4" for k in range(200)]
        lines[17] = ""
        text = "\n".join(lines) + "\n"
        want = _outcome(parse_predictions_loop, text)
        monkeypatch.setattr(evaluation, "PARSE_BLOCK_LINES", block)
        assert _outcome(parse_predictions, text) == want
        for bad in (0, 1, 63, 64, 65, 130, 199):  # each position within a block
            broken = list(lines)
            broken[bad] = "im0 1 0.5 10 10 5 nan"
            broken[bad + 1 if bad < 199 else 0] = "im0 1 0.5 10 10 5"
            text = "\n".join(broken) + "\n"
            got = _outcome(parse_predictions, text)
            assert got == _outcome(parse_predictions_loop, text)
            assert got[0] == "error" and got[1] == min(bad, bad + 1 if bad < 199 else 0) + 1


CAR = "10,20,5,5,1,4,0,0"

# Annotation texts both readers must accept or reject alike, with the same line and message.
VISDRONE_TEXTS = [
    "",
    "\n\n   \n\t\n",
    CAR,                                                # no final newline
    f"{CAR}\n\n  \n\t\n1,2,3,4,0,1,0,0\n",              # blank and whitespace-only lines
    " 1 ,\t2\t, 3,4 ,0,1,0,0\n\t1,2,3,4,0,1,0,0  \n",    # spaces and tabs around fields
    "1\x1f,2,3,\x1f4,0,1,0,0\n",                        # stripped, though int/float refuse it
    f"{CAR}\r\n{CAR}\r\n",                                # CRLF
    f"{CAR}\x0c1,2,3,4,0,1,0,0\u20282,3,4,5,0,2,0,0\n",   # other line breaks
    f"{CAR}\n1,2,3,4,0,1,0\n",                           # 7 fields, line 2
    "1,2,3,4,0,1,0,0,9\n",                              # 9 fields
    "1,2,3,4,0,1,0,0,\n",                               # a trailing comma
    ",,,,,,,\n",
    "1,2,3,4,x,1,y,z\n",                                # score, truncation, occlusion unread
    "1,2,3,4,0,-1,0,0\n",
    "1,2,3,4,0,0,0,0\n1,2,3,4,0,11,0,0\n",               # ignore regions
    "1,2,3,4,0,12,0,0\n",
    "1,2,3,4,0,1.0,0,0\n",                              # int() rejects it
    "1,2,3,4,0,99999999999999999999,0,0\n",             # beyond int64
    "1,2,3,4,0,-99999999999999999999,0,0\n",
    "1,2,3,-4,0,99999999999999999999,0,0\n",            # extent before category
    "1,2,3,4,0,+1_0,0,0\n1_0,2_0.5,3,4,0,1,0,0\n",
    "1,2,3,4,0,x,0,0\n",
    "x,2,3,4,0,1,0,0\n",
    "1,2,x,4,0,x,0,0\n",                                # the float error comes first
    "1,2,3,0,0,1,0,0\n",                                # zero extents
    "1,2,-0,4,0,1,0,0\n",
    "1,2,1e309,4,0,1,0,0\n",                            # inf by overflow
    "1,2,5e-324,1e308,0,1,0,0\n",
    "-0,-0.0,.5,5.,0,10,0,0\n",
    "1,2,nan,4,0,99,0,0\n",                             # finite before category
    f"{CAR}\n1,2,3,-4,0,1,0,0\n1,2,3\n",                 # the first bad line wins
] + [
    ",".join(["1", "2", "3", "4"][:k] + [bad] + ["1", "2", "3", "4"][k + 1 :]) + ",0,1,0,0\n"
    for k in range(4)
    for bad in ("nan", "inf", "-inf", "NaN", "Infinity")
]


def _gt_rows(boxes):
    """Each box's fields, floats by their bits."""
    return [(g.image_id, g.class_index, g.ignore, g.box.x.hex(), g.box.y.hex(), g.box.w.hex(),
             g.box.h.hex()) for g in boxes]


def _columns_of(truth):
    """The boxes of :class:`GroundTruth` columns, row by row."""
    ids = [truth.names[k] for k in truth.image.tolist()]
    return [GroundTruthBox(image_id, cls, Box(x, y, w, h), flag)
            for image_id, cls, flag, x, y, w, h in zip(
                ids, truth.class_index.tolist(), truth.ignore.tolist(), truth.x.tolist(),
                truth.y.tolist(), truth.w.tolist(), truth.h.tolist())]


def _visdrone_outcome(parse, text):
    try:
        return "ok", _gt_rows(parse(text, "im0"))
    except AnnotationError as exc:
        return "error", exc.line, str(exc)


def _loaded(directory):
    """load_ground_truth of a directory, as the per-file reader's boxes."""
    def parse(text, image_id):
        (directory / f"{image_id}.txt").write_text(text, encoding="utf-8")
        return _columns_of(load_ground_truth(directory))
    return parse


class TestVisdroneOracle:
    @pytest.mark.parametrize("text", VISDRONE_TEXTS)
    def test_same_verdict_as_loop(self, text, tmp_path):
        want = _visdrone_outcome(parse_visdrone_loop, text)
        assert _visdrone_outcome(parse_visdrone, text) == want
        got = _visdrone_outcome(_loaded(tmp_path), text)
        if want[0] == "error":  # the directory reader names the file
            want = (*want[:2], f"{tmp_path / 'im0.txt'}: {want[2]}")
        assert got == want

    def test_corpus_has_both_verdicts(self):
        verdicts = Counter(_visdrone_outcome(parse_visdrone_loop, t)[0] for t in VISDRONE_TEXTS)
        assert verdicts["ok"] >= 10 and verdicts["error"] >= 35

    def test_error_in_second_file_names_it(self, tmp_path):
        (tmp_path / "a.txt").write_text(f"{CAR}\n{CAR}\n")
        (tmp_path / "b.txt").write_text(f"{CAR}\n\n1,2,3,4,0,12,0,0\n")
        with pytest.raises(AnnotationError) as err:
            load_ground_truth(tmp_path)
        assert err.value.line == 3
        assert str(err.value) == f"{tmp_path / 'b.txt'}: line 3: category 12 outside 0..11"


def _bits(columns):
    return [column.tobytes() for column in columns]


class TestBlockSize:
    @pytest.mark.parametrize("block", [1, 3, 4096])
    def test_columns_do_not_depend_on_it(self, monkeypatch, tmp_path, block):
        rng = np.random.default_rng(block)
        predictions = "\n".join(
            f"im{k % 7} {k % 4} {rng.uniform():.3f} 10 20 3 4" if k % 50 else ""
            for k in range(200)) + "\n"
        annotations = "\n".join(
            f"{k},{k % 9},{1 + k % 5},{2 + k % 3},1,{k % 12},0,0" if k % 40 else " "
            for k in range(200)) + "\n"
        (tmp_path / "im0.txt").write_text(annotations)
        (tmp_path / "im1.txt").write_text(annotations.replace(",1,", ",0.5,"))

        def read():
            dets, truth = parse_predictions(predictions), load_ground_truth(tmp_path)
            return ([dets.names, *_bits((dets.image, dets.class_index, dets.score, dets.x,
                                         dets.y, dets.w, dets.h))],
                    [truth.names, *_bits((truth.image, truth.class_index, truth.ignore,
                                          truth.x, truth.y, truth.w, truth.h))],
                    _gt_rows(parse_visdrone(annotations, "im0")))

        want = read()
        monkeypatch.setattr(evaluation, "PARSE_BLOCK_LINES", block)
        assert read() == want
        assert want[2] == _gt_rows(parse_visdrone_loop(annotations, "im0"))
        for bad in (0, 1, 2, 3, 4, 130, 199):  # each position within a block of 3
            broken = annotations.splitlines()
            broken[bad] = "1,2,3,4,0,12,0,0"
            text = "\n".join(broken)
            got = _visdrone_outcome(parse_visdrone, text)
            assert got == _visdrone_outcome(parse_visdrone_loop, text)
            assert got[0] == "error" and got[1] == bad + 1


# Texts the stream reader must split as str.splitlines splits the whole text.
# At chunk size 1, every "\r\n" straddles a chunk edge.
LINE_TEXTS = [
    "",
    "a",                                   # no final newline
    "a\n",
    "\n\n\n",                              # blank lines
    "ab\r\ncd\r\n",
    "ab\r\n\r\ncd",                         # a blank CRLF line
    "\r", "\r\r", "\r\n", "\r\r\n\n", "\n\r",   # lone CRs beside CRLFs
    "ab\rcd\r",                            # lone CRs, one at the end
    "a\x0bb\x0cc\x1cd\x1de\x1ef",
    "a\x85b\u2028c\u2029d\u2029",
    "\x85\u2028\u2029\x0b\x0c\x1c\x1d\x1e",   # breaks only
    "abcdefgh\r\nijklmnop\r\nq",
    "  \t \n x \r\n\r\n y",
    "x\x1f\x1fy\n",                         # \x1f is not a line break
    "\xe9\u2028\xfc\r\n\xdf\r",
]


def _stream_lines(text):
    return [line for lines in evaluation._line_lists(io.StringIO(text)) for line in lines]


class TestStreamReader:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6, 7, 8, None])
    def test_lines_are_the_whole_texts_splitlines(self, monkeypatch, size):
        if size is not None:
            monkeypatch.setattr(evaluation, "READ_CHUNK_CHARS", size)
        for text in LINE_TEXTS + EDGE_TEXTS + VISDRONE_TEXTS:
            assert _stream_lines(text) == text.splitlines(), (text, size)

    def test_corpus_holds_every_line_break(self):
        corpus = "".join(LINE_TEXTS)
        assert all(brk in corpus for brk in evaluation._LINE_BREAKS)
        assert all(brk in corpus for brk in ("\r\n", "\r\r", "\n\r"))

    def test_a_line_of_many_chunks(self, monkeypatch):
        # its chunks wait in a list and are joined once, when a break comes
        monkeypatch.setattr(evaluation, "READ_CHUNK_CHARS", 7)
        text = "x" * 200_000 + "\r\n" + "y"
        assert _stream_lines(text) == text.splitlines()

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6, 7, 8, None])
    def test_a_stream_gets_the_whole_texts_verdict(self, monkeypatch, size):
        # the same rows, or the same line number and message, as the loop on the whole text
        if size is not None:
            monkeypatch.setattr(evaluation, "READ_CHUNK_CHARS", size)
        monkeypatch.setattr(evaluation, "PARSE_BLOCK_LINES", 2)
        for text in EDGE_TEXTS:
            got = _outcome(lambda t: parse_predictions(io.StringIO(t)), text)
            assert got == _outcome(parse_predictions_loop, text), (text, size)
        for text in VISDRONE_TEXTS:
            got = _visdrone_outcome(parse_visdrone, text)
            assert got == _visdrone_outcome(parse_visdrone_loop, text), (text, size)


class TestUndecodable:
    """Bytes that are not UTF-8 stop the reader with an AnnotationError that
    names the file and the line the reader had reached."""

    def test_prediction_file_names_the_file_and_a_line_at_or_before_the_bytes(self, tmp_path):
        path = tmp_path / "p.txt"
        good = f"{GOOD}\n".encode() * 9000
        path.write_bytes(good + b"im0 1 0.5 10 10 5 \xff\n" + good)
        with open(path, encoding="utf-8") as fh, pytest.raises(AnnotationError) as err:
            parse_predictions(fh)
        assert 1 <= err.value.line <= 9001
        assert err.value.path == str(path)
        assert str(err.value) == (f"{path}: line {err.value.line}: not UTF-8 text: invalid "
                                  "start byte 0xff (at or after this line)")

    def test_bad_lines_read_before_the_bytes_are_reported_first(self, tmp_path, monkeypatch):
        # the lines read before the undecodable chunk wait in one unparsed block
        monkeypatch.setattr(evaluation, "PARSE_BLOCK_LINES", 1 << 20)
        path = tmp_path / "p.txt"
        good = f"{GOOD}\n".encode() * 9000
        path.write_bytes(f"{GOOD}\nim0 1 0.5 10 10 5\n".encode() + good + b"\xff\n")
        with open(path, encoding="utf-8") as fh, pytest.raises(AnnotationError) as err:
            parse_predictions(fh)
        assert str(err.value) == f"{path}: line 2: expected 7 space-separated fields, got 6"

    def test_annotation_file_names_the_file(self, tmp_path):
        (tmp_path / "a.txt").write_text(f"{CAR}\n")
        (tmp_path / "b.txt").write_bytes(f"{CAR}\n{CAR}\n".encode() + b"1,2,\xe9,4,0,1,0,0\n")
        with pytest.raises(AnnotationError) as err:
            load_ground_truth(tmp_path)
        assert 1 <= err.value.line <= 3
        assert str(err.value) == (f"{tmp_path / 'b.txt'}: line {err.value.line}: not UTF-8 "
                                  "text: invalid continuation byte 0xe9 (at or after this line)")


class TestRoundTrip:
    def test_format_parse_bit_identical(self):
        rng = np.random.default_rng(12)
        n = 500
        ids = np.array([f"img_{k}" for k in range(9)] + ["a", "Z-1", "x.y", "é", "a,b", "#"])
        image_ids = ids[rng.integers(len(ids), size=n)]
        score = rng.uniform(0, 1, n)
        x, y = rng.normal(0, 1e3, (2, n))
        w, h = np.exp(rng.normal(0, 8, (2, n)))
        values = [score, x, y, w, h]
        for column in values:  # a third of the rows hold float32 values
            column[::3] = column[::3].astype(np.float32)
        score[:4] = [0.0, 1.0, -0.0, 5e-324]
        x[4], w[5], h[6] = -0.0, 5e-324, 1e308
        names = sorted(set(image_ids.tolist()))
        image = np.searchsorted(names, image_ids)
        dets = Detections(tuple(names), image, rng.integers(0, 2**40, n), *values)

        text = format_predictions(dets)
        # the same text from the table rebuilt from its Detection rows
        assert text == format_predictions(Detections.of(list(dets)))
        back = parse_predictions(text)
        assert back.names == dets.names
        assert np.array_equal(back.image, dets.image)
        assert np.array_equal(back.class_index, dets.class_index)
        for got, want in zip((back.score, back.x, back.y, back.w, back.h), values):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert _rows(back) == _rows(parse_predictions_loop(text))


class TestNonFinite:
    @pytest.mark.parametrize("field", range(5))
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_prediction_reader(self, field, value):
        tokens = ["0.5", "10", "10", "5", "5"]
        tokens[field] = value
        text = f"{GOOD}\nim0 1 {' '.join(tokens)}\n"
        with pytest.raises(AnnotationError) as err:
            parse_predictions(text)
        assert err.value.line == 2
        assert f"non-finite {('score', 'x', 'y', 'w', 'h')[field]}" in str(err.value)

    @pytest.mark.parametrize("field", range(4))
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_annotation_reader(self, field, value):
        tokens = ["1", "1", "5", "5"]
        tokens[field] = value
        text = "1,1,5,5,1,1,0,0\n" + ",".join(tokens) + ",1,1,0,0\n"
        with pytest.raises(AnnotationError) as err:
            parse_visdrone(text, "im0")
        assert err.value.line == 2
        assert f"non-finite {'xywh'[field]}" in str(err.value)

    def test_annotation_directory_names_file_and_line(self, tmp_path):
        (tmp_path / "im0.txt").write_text("1,1,5,5,1,1,0,0\n1,1,inf,5,1,1,0,0\n")
        with pytest.raises(AnnotationError) as err:
            load_ground_truth(tmp_path)
        assert err.value.line == 2 and "im0.txt" in str(err.value)


class TestDecodeOverflow:
    def test_overflowing_extent_dropped(self):
        raw = np.zeros((21, 1, 2))        # 3 anchors of (t_x, t_y, t_w, t_h, t_o, c0, c1)
        raw[4::7] = raw[5::7] = 800.0     # every anchor and cell scores 1
        raw[6::7] = -800.0
        raw[2, 0, 0] = 800.0              # anchor 0, cell (0, 0): t_w = 800
        raw[7 + 3, 0, 1] = 710.0          # anchor 1, cell (0, 1): t_h just past exp's range
        head = HeadOutput(32, raw, [(116.0, 90.0), (156.0, 198.0), (373.0, 326.0)], 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dets = decode(head, 0.5, IDENTITY_TRANSFORM, "img")
        assert len(dets) == 4             # 6 candidates, 2 with an infinite extent
        assert np.isfinite(dets.w).all() and np.isfinite(dets.h).all()
        assert list(zip(dets.x.tolist(), dets.y.tolist())) == [
            (48.0, 16.0), (16.0, 16.0), (16.0, 16.0), (48.0, 16.0)]
        assert _rows(parse_predictions(format_predictions(dets))) == _rows(dets)


    def test_overflowing_area_dropped(self):
        raw = np.zeros((21, 1, 2))
        raw[4::7] = -800.0                # no anchor or cell scores ...
        raw[4, 0, :] = raw[5, 0, :] = 800.0  # ... but anchor 0 on both cells
        raw[2:4, 0, 0] = 460.0            # cell (0, 0): finite extents, their product is not
        raw[2, 0, 1] = 460.0              # cell (0, 1): one huge extent, a finite area
        head = HeadOutput(32, raw, [(116.0, 90.0), (156.0, 198.0), (373.0, 326.0)], 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dets = decode(head, 0.5, IDENTITY_TRANSFORM, "img")
            kept = nms(dets, 0.45)
        assert len(dets) == len(kept) == 1 and dets.x.tolist() == [48.0]
        assert np.isfinite(dets.w * dets.h).all()


class TestDetections:
    def test_of_and_iteration_round_trip(self):
        dets = [Detection("b", 2, 0.5, Box(1.0, 2.0, 3.0, 4.0)),
                Detection("a", 0, 0.25, Box(5.0, 6.0, 7.0, 8.0))]
        columns = Detections.of(dets)
        assert columns.names == ("a", "b") and columns.image.tolist() == [1, 0]
        assert list(columns) == dets and len(columns) == 2

    def test_concat_remaps_images(self):
        parts = [Detections.of([Detection(i, 0, 0.5, Box(1, 1, 1, 1))]) for i in "cab"]
        joined = Detections.concat(parts + [Detections.of([])])
        assert joined.names == ("a", "b", "c")
        assert joined.image_ids() == ["c", "a", "b"]
        assert len(Detections.concat([])) == 0

    def test_tied_detections_on_two_images_label_in_image_id_order(self):
        # the ties break by image code; names out of order would put b first,
        # where the loop visits a first, so such a table is refused
        a, b = (Detection(i, 0, 0.5, Box(10, 10, 4, 4)) for i in "ab")
        truth = [GroundTruthBox(i, 0, Box(10, 10, 4, 4)) for i in "ab"]
        columns = (np.array([0, 1]), np.zeros(2, np.int64), np.full(2, 0.5),
                   *(np.array([v, v]) for v in (10.0, 10.0, 4.0, 4.0)))
        with pytest.raises(ValidationError, match="^table names must be sorted and unique: "
                                                  "'b' then 'a'$"):
            Detections(("b", "a"), *columns)
        labeled, _ = match(Detections(("a", "b"), *columns), GroundTruth.of(truth))
        assert list(zip(labeled.detections, labeled.is_tp.tolist())) == match_loop([b, a], truth)
        assert labeled.detections.image_ids() == ["a", "b"]

    @pytest.mark.parametrize("names", [("b", "a"), ("a", "a"), ("a", "c", "b")])
    def test_names_not_strictly_increasing_refused(self, names):
        n = len(names)
        boxes = [np.ones(n)] * 4
        with pytest.raises(ValidationError, match="table names must be sorted and unique"):
            Detections(names, np.arange(n), np.zeros(n, np.int64), np.full(n, 0.5), *boxes)
        with pytest.raises(ValidationError, match="table names must be sorted and unique"):
            GroundTruth(names, np.arange(n), np.zeros(n, np.int64), np.zeros(n, bool), *boxes)


def _instance(rng, n_images=3, n_classes=3):
    images = [f"im{k}" for k in range(n_images)]

    def box():
        return Box(*rng.integers(0, 6, 2).tolist(), *rng.integers(1, 5, 2).tolist())

    truth = [GroundTruthBox(images[int(rng.integers(n_images))], int(rng.integers(-1, n_classes)),
                            box(), ignore=bool(rng.random() < 0.2))
             for _ in range(int(rng.integers(0, 16)))]
    truth = [g if g.ignore or g.class_index >= 0
             else GroundTruthBox(g.image_id, 0, g.box) for g in truth]
    dets = [Detection(images[int(rng.integers(n_images))], int(rng.integers(n_classes)),
                      round(float(rng.uniform(0.05, 1.0)), 1), box())
            for _ in range(int(rng.integers(0, 30)))]
    return dets, truth


class TestColumnarMatch:
    def test_class_breaks_full_ties(self):
        # equal score, image and box: class order, then input order
        a, b, c = (Detection("im0", cls, 0.5, Box(10, 10, 4, 4)) for cls in (2, 0, 2))
        truth = [GroundTruthBox("im0", 0, Box(10, 10, 4, 4))]
        labeled, _ = match(Detections.of([a, b, c]), GroundTruth.of(truth))
        pairs = list(zip(labeled.detections, labeled.is_tp.tolist()))
        assert pairs == [(b, True), (a, False), (c, False)] == match_loop([a, b, c], truth)
        assert labeled.detections.class_index.tolist() == [0, 2, 2]

    def test_canonical_order_is_the_seven_key_lexsort(self):
        rng = np.random.default_rng(16)
        for trial in range(200):
            n = int(rng.integers(0, 80))

            def ints(high):
                return rng.integers(0, high, n)

            score = ints(5) / 4 if trial % 4 else np.full(n, 0.5)  # quarter steps, or all tied
            if trial % 5 == 0:
                score[ints(2) == 0] = np.nan
                score[(score == 0) & (ints(2) == 0)] = -0.0  # beside 0.0
            dets = Detections(("a", "b", "c"), ints(3), ints(3), score,
                              *(ints(3).astype(float) for _ in range(4)))
            want = np.lexsort((dets.class_index, dets.h, dets.w, dets.y, dets.x, dets.image,
                               -dets.score))
            assert evaluation._canonical_order(dets).tolist() == want.tolist()

    def test_columns_label_like_the_loop(self):
        rng = np.random.default_rng(14)
        for trial in range(150):
            dets, truth = _instance(rng)
            threshold = (1 / 3, 0.5, 0.45)[trial % 3]
            labeled, counts = match(Detections.of(dets), GroundTruth.of(truth), threshold)
            expected = match_loop(dets, truth, threshold)
            assert len(labeled) == len(expected)
            assert list(labeled.detections) == [d for d, _ in expected]
            assert labeled.is_tp.tolist() == [t for _, t in expected]
            assert list(labeled) == [
                ((d.image_id, d.class_index, d.score, d.box.x, d.box.y, d.box.w, d.box.h), t)
                for d, t in expected
            ]
            assert counts == Counter(g.class_index for g in truth if not g.ignore)


@pytest.fixture
def built(monkeypatch):
    """Counts of the ``Box`` and ``Detection`` objects built while the test runs."""
    counts = Counter()
    box_post_init, detection_init = Box.__post_init__, Detection.__init__

    def counting_post_init(self):
        counts["Box"] += 1
        box_post_init(self)

    def counting_init(self, *args, **kwargs):
        counts["Detection"] += 1
        detection_init(self, *args, **kwargs)

    monkeypatch.setattr(Box, "__post_init__", counting_post_init)
    monkeypatch.setattr(Detection, "__init__", counting_init)
    return counts


class TestObjectsOnlyAtEdges:
    def test_detect_render_builds_no_detection_or_box(self, tmp_path, built):
        out, render = tmp_path / "predictions.txt", tmp_path / "render"
        stdout = regenerate.run_cli(regenerate.detect_argv(str(out), str(render)))
        assert built == Counter()
        detections = parse_predictions(out.read_text())
        assert stdout.startswith(f"{len(detections)} detections") and len(detections) > 0
        assert sorted(os.listdir(render)) == ["scene0.ppm", "scene1.ppm"]
        # the counters do see objects built elsewhere
        assert len(list(detections)) == built["Detection"] == built["Box"]

    def test_eval_builds_no_detection_or_box(self, tmp_path, built, capsys):
        rng = np.random.default_rng(15)
        gt_dir = tmp_path / "gt"
        gt_dir.mkdir()
        lines = []
        for k in range(6):
            boxes = [f"{int(x)},{int(y)},{int(w)},{int(h)},1,{int(c)},0,0"
                     for x, y, w, h, c in zip(*rng.integers(1, 60, (4, 12)),
                                              rng.integers(0, 12, 12))]
            (gt_dir / f"im{k}.txt").write_text("\n".join(boxes) + "\n")
            lines += [f"im{k} {rng.integers(10)} {rng.uniform():.2f} {rng.uniform(5, 80):.1f} "
                      f"{rng.uniform(5, 80):.1f} {rng.uniform(2, 40):.1f} {rng.uniform(2, 40):.1f}"
                      for _ in range(50)]
        pred = tmp_path / "pred.txt"
        pred.write_text("\n".join(lines) + "\n")

        argv = ["eval", "--gt", str(gt_dir), "--pred", str(pred), "--out-dir",
                str(tmp_path / "out")]
        assert cli.main(argv) == 0
        assert built == Counter()
        assert "mAP50" in capsys.readouterr().out
        # the counters do see objects built elsewhere
        truth = [g for k in range(6)
                 for g in parse_visdrone((gt_dir / f"im{k}.txt").read_text(), f"im{k}")]
        assert built["Box"] == len(truth) > 0
        dets = parse_predictions_loop(pred.read_text())
        assert built["Detection"] == len(dets) == 300

        # their table, with the list of ground-truth rows, scores like the
        # brute-force oracle
        report = evaluate(Detections.of(dets), truth, 10)
        oracle_aps, oracle_map = brute_force_evaluate(dets, truth, 10)
        assert max(abs(c.ap - ap) for c, ap in zip(report.per_class, oracle_aps)) <= 1e-12
        assert abs(report.map_fraction - oracle_map) <= 1e-12

    def test_training_builds_no_box(self, built):
        # the toy set's labels are tables, and the trainer reads their columns
        dataset = synthetic_dataset(seed=0)
        assert sum(len(example.boxes.x) for example in dataset) > 0
        train_toy(dataset, toy_graph(), ToyTrainConfig(steps=1, seed=0))
        assert built == Counter()
