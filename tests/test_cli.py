"""CLI behavior: exit codes, file outputs, determinism, JSON results."""

import json
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import yolokit
from yolokit import cli, evaluation
from yolokit.cfg import (
    builtin_graph,
    check_num_classes,
    parse_cfg,
    render_cfg,
    shape_check,
    toy_graph,
)
from yolokit.detect import (
    Box,
    Detection,
    Detections,
    check_conf_threshold,
    check_nms_threshold,
    letterbox,
)
from yolokit.errors import GraphValidationError, ValidationError
from yolokit.evaluation import (
    GroundTruthBox,
    check_iou_threshold,
    check_score_threshold,
    format_predictions,
)
from yolokit.loss import ToyTrainConfig
from yolokit.ppm import PALETTE, parse_ppm, read_ppm, render_detections, write_ppm
from yolokit.verify import CheckResult, check_toy_steps
from yolokit.weights import check_seed, random_init, save_weights_file
from visdrone_writer import format_visdrone

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden"))
import regenerate  # noqa: E402


@pytest.fixture
def scene(tmp_path):
    rng = np.random.default_rng(11)
    path = tmp_path / "scene.ppm"
    write_ppm(path, np.round(rng.uniform(0, 1, (3, 64, 96)) * 255).astype(np.uint8))
    return path


def run(argv):
    return cli.main([str(a) for a in argv])


class TestPpm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        image = rng.integers(0, 256, (3, 5, 7), dtype=np.uint8)
        path = tmp_path / "x.ppm"
        write_ppm(path, image)
        again = read_ppm(path)
        assert again.dtype == np.uint8 and again.flags.c_contiguous
        assert np.array_equal(again, image)

    def test_comments_in_header(self):
        data = b"P6\n# a comment\n2 1\n255\n" + bytes(6)
        assert parse_ppm(data).shape == (3, 1, 2)

    def test_bad_magic(self):
        from yolokit.errors import ValidationError

        with pytest.raises(ValidationError):
            parse_ppm(b"P5\n1 1\n255\n\x00")

    def test_truncated_raster(self):
        from yolokit.errors import ValidationError

        with pytest.raises(ValidationError):
            parse_ppm(b"P6\n2 2\n255\n\x00\x00\x00")

    @pytest.mark.parametrize("image", [
        np.zeros((3, 4, 4)),                     # float samples
        np.zeros((3, 4, 4), dtype=np.int16),     # wider integers
        np.zeros((4, 4, 3), dtype=np.uint8),     # channels last
        np.zeros((1, 4, 4), dtype=np.uint8),     # one channel
        np.zeros((3, 0, 4), dtype=np.uint8),     # no rows
        np.zeros((3, 4), dtype=np.uint8),        # rank 2
    ], ids=["float64", "int16", "hwc", "gray", "empty", "rank2"])
    def test_a_non_8bit_or_misshaped_image_is_refused_before_any_work(self, image, tmp_path):
        class Untouched(np.ndarray):  # any read of the samples fails the test
            def __getitem__(self, key):
                pytest.fail("image read before it was checked")

            def transpose(self, *axes):
                pytest.fail("image read before it was checked")

            def copy(self, order="C"):
                pytest.fail("image read before it was checked")

        image = image.view(Untouched)
        path = tmp_path / "x.ppm"
        with pytest.raises(ValidationError, match="image: expected"):
            write_ppm(path, image)
        assert not path.exists()
        with pytest.raises(ValidationError, match="image: expected"):
            letterbox(image, 8, np.float32)
        with pytest.raises(ValidationError, match="image: expected"):
            render_detections(image, [])

    def test_refused_write_leaves_the_path_alone(self, tmp_path):
        existing, missing = tmp_path / "old.ppm", tmp_path / "new.ppm"
        write_ppm(existing, np.full((3, 2, 3), 7, dtype=np.uint8))
        old = existing.read_bytes()
        for path in (existing, missing):
            with pytest.raises(ValidationError):
                write_ppm(path, np.zeros((4, 4)))
        assert existing.read_bytes() == old
        assert not missing.exists()

    def test_encoding_a_render_equals_the_float_encode(self, tmp_path):
        # the float route scaled each 8-bit sample v and palette byte to
        # v / 255 and encoded round(clip(x) * 255); round((v / 255) * 255)
        # is v for every level, so the 8-bit route writes the same bytes
        def float_encode(image):
            _, h, w = image.shape
            raster = np.round(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
            return b"P6\n%d %d\n255\n" % (w, h) + raster.transpose(1, 2, 0).tobytes()

        levels = np.arange(256, dtype=np.uint8).reshape(4, 64)
        image = np.zeros((3, 24, 64), dtype=np.uint8)
        for c in range(3):
            image[c, :4] = np.roll(levels, 85 * c)
        # one box per palette colour, side by side below the level rows
        dets = [Detection("im", k, 0.5, Box(3 + 6 * k, 14, 4, 14)) for k in range(len(PALETTE))]
        rendered = render_detections(image, dets)
        assert rendered.dtype == np.uint8
        assert np.array_equal(rendered[:, :4], image[:, :4])
        pixels = {tuple(p) for p in rendered.reshape(3, -1).T.tolist()}
        assert set(PALETTE) <= pixels
        path = tmp_path / "frame.ppm"
        for frame in (image, rendered):
            write_ppm(path, frame)
            assert path.read_bytes() == float_encode(frame / 255.0)

    def test_image_path_memory_is_a_few_8bit_frames(self, tmp_path):
        # cmd_detect's image path on a 1024x1024 frame: read, letterbox,
        # render and write, keeping the frame and its network input alive.
        # Bound: 3 frames (the frame, the render and its raster) + 2 float32
        # 640-px network inputs (the canvas and its table lookup) + 64 KiB,
        # 18.4 MiB. A float64 frame alone is 8 frames.
        frame = np.random.default_rng(3).integers(0, 256, (3, 1024, 1024), dtype=np.uint8)
        path, out = tmp_path / "big.ppm", tmp_path / "out.ppm"
        write_ppm(path, frame)
        dets = [Detection("big", k, 0.5, Box(60 + 90 * k, 500, 80, 300)) for k in range(10)]
        canvas = 3 * 640 * 640 * 4  # bytes of a float32 640-px network input
        budget = 3 * frame.nbytes + 2 * canvas + 64 * 1024
        tracemalloc.start()
        try:
            image = read_ppm(path)
            boxed, _ = letterbox(image, 640, np.float32)
            rendered = render_detections(image, dets)
            write_ppm(out, rendered)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert boxed.nbytes == canvas and np.array_equal(image, frame)
        assert np.array_equal(read_ppm(out), rendered)
        assert peak <= budget, f"peak {peak / 2**20:.1f} MiB > {budget / 2**20:.1f} MiB"

    def test_render_draws_each_box_like_a_scalar_loop(self):
        # boxes across each border, outside each side, half-pixel corners
        # (round half to even), huge extents, thin boxes, classes past the
        # palette and overlapping boxes of different classes
        boxes = [(5, 4, 6, 4), (0, 0, 5, 5), (20, 7, 6, 6), (10, 15, 30, 3), (-10, 5, 4, 4),
                 (30, 5, 4, 4), (10, -9, 4, 4), (10, 20, 4, 4), (2.5, 3.5, 3, 3),
                 (11.5, 6.5, 1, 1), (10, 8, 1e300, 1e300), (12, 8, 0.2, 9), (7, 7, 3, 3)]
        dets = [Detection("im", k * 3, 0.5, Box(*box)) for k, box in enumerate(boxes)]
        image = np.random.default_rng(16).integers(0, 256, (3, 16, 24), dtype=np.uint8)
        want = image.copy()
        for d in dets:  # the outline rule, one box at a time
            b = d.box
            corners = (b.x - b.w / 2, b.y - b.h / 2, b.x + b.w / 2, b.y + b.h / 2)
            x1, y1, x2, y2 = (int(round(v)) for v in corners)
            x1, x2, y1, y2 = max(0, x1), min(23, x2), max(0, y1), min(15, y2)
            if x1 <= x2 and y1 <= y2:
                color = np.array(PALETTE[d.class_index % 10], dtype=np.uint8)[:, None, None]
                for rows, cols in ((slice(y1, min(y1 + 2, y2 + 1)), slice(x1, x2 + 1)),
                                   (slice(max(y2 - 1, y1), y2 + 1), slice(x1, x2 + 1)),
                                   (slice(y1, y2 + 1), slice(x1, min(x1 + 2, x2 + 1))),
                                   (slice(y1, y2 + 1), slice(max(x2 - 1, x1), x2 + 1))):
                    want[:, rows, cols] = color
        for given in (dets, Detections.of(dets)):
            got = render_detections(image, given)
            assert got.dtype == np.uint8 and np.array_equal(got, want)
        assert not np.array_equal(want, image) and image is not got


class TestDetect:
    def test_high_threshold_empty_predictions(self, scene, tmp_path):
        out = tmp_path / "preds.txt"
        code = run(
            ["detect", scene, "--model", "yolov3-tiny", "--classes", "2",
             "--size", "64", "--conf", "0.999", "--precision", "single",
             "--seed", "5", "--out", out]
        )
        assert code == 0
        assert out.read_text() == ""

    def test_indivisible_size_is_usage_error(self, scene, tmp_path):
        code = run(
            ["detect", scene, "--model", "yolov3-tiny", "--size", "100",
             "--out", tmp_path / "p.txt"]
        )
        assert code == 2

    @pytest.mark.parametrize("size", ["0", "-32", "48", "100"])
    def test_non_positive_size_is_usage_error_before_reading(self, tmp_path, capsys, size):
        # neither file exists: exit 2, not 1, shows nothing was read first;
        # 48 and 100 are positive but off the builtin head strides
        code = run(
            ["detect", tmp_path / "missing.ppm", "--model", "yolov3-tiny",
             "--weights", tmp_path / "missing.weights", "--size", size,
             "--out", tmp_path / "p.txt"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert f"--size {size}" in err
        assert "Traceback" not in err and "Warning" not in err

    @pytest.mark.parametrize("model", ["yolov3", "yolov3-spp", "yolov3-tiny"])
    def test_builtin_sizes_are_those_shape_check_accepts(self, tmp_path, model):
        # exit 1 is the missing weights file: the size passed and reading began
        graph = builtin_graph(model.replace("-", "_"), 80)
        accepted, fits = [], []
        for size in range(1, 1300):
            code = run(["detect", tmp_path / "missing.ppm", "--model", model,
                        "--weights", tmp_path / "missing.weights", "--size", size,
                        "--out", tmp_path / "p.txt"])
            assert code in (1, 2)
            if code == 1:
                accepted.append(size)
            try:
                shape_check(graph, size, size)
                fits.append(size)
            except GraphValidationError:
                pass
        assert accepted == fits == list(range(32, 1300, 32))

    def test_cfg_graph_runs_at_its_own_head_stride(self, scene, tmp_path):
        # the toy graph's one head has stride 8, so 40 px fits it
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(render_cfg(toy_graph()))
        out = tmp_path / "p.txt"
        assert run(["detect", scene, "--cfg", cfg, "--size", "40", "--out", out]) == 0
        assert run(["detect", scene, "--cfg", cfg, "--size", "44", "--out", out]) == 2

    def test_cfg_that_is_not_utf8_is_an_error_naming_it(self, scene, tmp_path, capsys):
        cfg = tmp_path / "toy.cfg"
        cfg.write_bytes(render_cfg(toy_graph()).encode() + b"# \xff\n")
        out = tmp_path / "p.txt"
        assert run(["detect", scene, "--cfg", cfg, "--size", "40", "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: not UTF-8 text: invalid start byte 0xff\n"
        assert not out.exists()

    def test_missing_model_is_usage_error(self, scene, tmp_path):
        assert run(["detect", scene, "--out", tmp_path / "p.txt"]) == 2

    def test_missing_image_is_runtime_error(self, tmp_path):
        code = run(
            ["detect", tmp_path / "nope.ppm", "--model", "yolov3-tiny",
             "--size", "64", "--out", tmp_path / "p.txt"]
        )
        assert code == 1

    @pytest.mark.parametrize("name", ["a b.ppm", "tab\there.ppm", " .ppm", " a.ppm",
                                      "a\u2028b.ppm"])
    def test_image_name_with_whitespace_is_usage_error_before_reading(self, scene, tmp_path,
                                                                      name, capsys):
        # the image id is one token of each prediction-file line:
        # evaluation.check_image_id, which format_predictions also runs
        image = tmp_path / name
        image.write_bytes(scene.read_bytes())
        out = tmp_path / "p.txt"
        assert run(["detect", scene, image, "--model", "yolov3-tiny", "--size", "64",
                    "--weights", tmp_path / "missing.weights", "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"usage error: image {image}: " in err and "whitespace" in err
        assert not out.exists()

    @pytest.mark.parametrize("other", ["b/scene.ppm", "scene.ppm", "b/scene.pgm"])
    def test_two_images_with_one_id_are_usage_error_before_reading(self, scene, tmp_path,
                                                                   other, capsys):
        # predictions carry the file stem only: two images under one id would merge
        second = tmp_path / other
        second.parent.mkdir(exist_ok=True)
        if second != scene:
            second.write_bytes(scene.read_bytes())
        out = tmp_path / "p.txt"
        assert run(["detect", scene, second, "--model", "yolov3-tiny", "--size", "64",
                    "--weights", tmp_path / "missing.weights", "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"usage error: images {scene} and {second} both give image id 'scene'" in err
        assert not out.exists()

    def test_deterministic_predictions(self, scene, tmp_path):
        args = ["detect", scene, "--model", "yolov3-tiny", "--classes", "2",
                "--size", "64", "--conf", "0.05", "--precision", "single", "--seed", "9"]
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run(args + ["--out", out1]) == 0
        assert run(args + ["--out", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_render_writes_outlined_copy(self, scene, tmp_path):
        rendered = tmp_path / "rendered"
        code = run(
            ["detect", scene, "--model", "yolov3-tiny", "--classes", "2",
             "--size", "64", "--conf", "0.05", "--precision", "single",
             "--seed", "9", "--out", tmp_path / "p.txt", "--render", rendered]
        )
        assert code == 0
        out = read_ppm(rendered / "scene.ppm")
        assert out.shape == (3, 64, 96)
        palette = np.array(PALETTE, dtype=np.uint8)
        flat = out.reshape(3, -1).T
        hits = (flat[:, None, :] == palette[None, :, :]).all(axis=2).any()
        assert hits  # at least one pixel painted in a palette color

    def test_weights_through_a_pipe_match_the_file(self, scene, tmp_path):
        cfg, weights, fifo = tmp_path / "toy.cfg", tmp_path / "toy.weights", tmp_path / "w.fifo"
        cfg.write_text(render_cfg(toy_graph()))
        save_weights_file(random_init(toy_graph(), seed=5), weights)
        os.mkfifo(fifo)
        args = ["detect", scene, "--cfg", cfg, "--size", "64", "--conf", "0.05"]
        from_file, from_pipe = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run(args + ["--weights", weights, "--out", from_file]) == 0
        writer = threading.Thread(target=fifo.write_bytes, args=(weights.read_bytes(),),
                                  daemon=True)
        writer.start()
        assert run(args + ["--weights", fifo, "--out", from_pipe]) == 0
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert from_file.read_text().count("\n") > 0
        assert from_pipe.read_bytes() == from_file.read_bytes()

    def test_env_seed_matches_explicit(self, scene, tmp_path, monkeypatch):
        args = ["detect", scene, "--model", "yolov3-tiny", "--classes", "2",
                "--size", "64", "--conf", "0.05", "--precision", "single"]
        explicit, from_env = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run(args + ["--seed", "21", "--out", explicit]) == 0
        monkeypatch.setenv("YOLOKIT_SEED", "21")
        assert run(args + ["--out", from_env]) == 0
        assert explicit.read_bytes() == from_env.read_bytes()

    def test_non_integer_env_seed_is_usage_error(self, scene, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("YOLOKIT_SEED", "abc")
        out = tmp_path / "p.txt"
        assert run(["detect", scene, "--model", "yolov3-tiny", "--size", "64",
                    "--out", out]) == 2
        assert "YOLOKIT_SEED" in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def _write_fixture(self, tmp_path):
        gt_dir = tmp_path / "gt"
        gt_dir.mkdir()
        truth = [
            GroundTruthBox("im0", 0, Box(20, 20, 10, 10)),
            GroundTruthBox("im0", 0, Box(60, 60, 10, 10)),
        ]
        (gt_dir / "im0.txt").write_text(format_visdrone(truth))
        dets = [
            Detection("im0", 0, 0.9, Box(20, 20, 10, 10)),
            Detection("im0", 0, 0.8, Box(40, 40, 10, 10)),
            Detection("im0", 0, 0.7, Box(60, 60, 10, 10)),
        ]
        pred = tmp_path / "preds.txt"
        pred.write_text(format_predictions(dets))
        return gt_dir, pred

    def test_hand_fixture_prints_83_3(self, tmp_path, capsys):
        gt_dir, pred = self._write_fixture(tmp_path)
        code = run(["eval", "--gt", gt_dir, "--pred", pred, "--classes", "1",
                    "--out-dir", tmp_path / "out"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "83.3" in captured
        assert "mAP50 83.3" in captured
        assert (tmp_path / "out" / "report.csv").exists()
        assert (tmp_path / "out" / "pr_class0.csv").exists()

    def test_perfect_predictions_print_100(self, tmp_path, capsys):
        gt_dir = tmp_path / "gt"
        gt_dir.mkdir()
        truth = [GroundTruthBox("im0", 1, Box(30, 30, 12, 12))]
        (gt_dir / "im0.txt").write_text(format_visdrone(truth))
        pred = tmp_path / "p.txt"
        pred.write_text(format_predictions(
            [Detection("im0", 1, 1.0, Box(30, 30, 12, 12))]
        ))
        code = run(["eval", "--gt", gt_dir, "--pred", pred, "--classes", "10",
                    "--out-dir", tmp_path / "out"])
        assert code == 0
        assert "mAP50 100.0" in capsys.readouterr().out

    def test_empty_predictions_zero_map(self, tmp_path, capsys):
        gt_dir, _ = self._write_fixture(tmp_path)
        pred = tmp_path / "empty.txt"
        pred.write_text("")
        code = run(["eval", "--gt", gt_dir, "--pred", pred, "--classes", "1",
                    "--out-dir", tmp_path / "out"])
        assert code == 0
        assert "mAP50 0.0" in capsys.readouterr().out

    def test_malformed_predictions_fail_with_line(self, tmp_path, capsys):
        gt_dir, _ = self._write_fixture(tmp_path)
        pred = tmp_path / "bad.txt"
        pred.write_text("im0 0 not-a-number 1 1 1 1\n")
        code = run(["eval", "--gt", gt_dir, "--pred", pred, "--classes", "1",
                    "--out-dir", tmp_path / "out"])
        assert code == 1
        assert "line 1" in capsys.readouterr().err

    def test_prediction_file_that_is_not_utf8_is_an_error_naming_it(self, tmp_path, capsys):
        gt_dir, pred = self._write_fixture(tmp_path)
        pred.write_bytes(pred.read_bytes() + b"im0 0 0.5 1 1 1 \xff\n")
        code = run(["eval", "--gt", gt_dir, "--pred", pred, "--classes", "1",
                    "--out-dir", tmp_path / "out"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == (f"error: {pred}: line 1: not UTF-8 text: invalid start byte 0xff "
                       "(at or after this line)\n")
        assert not (tmp_path / "out").exists()

    def test_annotation_file_that_is_not_utf8_is_an_error_naming_it(self, tmp_path, capsys):
        gt_dir, pred = self._write_fixture(tmp_path)
        bad = gt_dir / "im1.txt"
        bad.write_bytes(b"1,2,3,4,1,\xc3,0,0\n")
        code = run(["eval", "--gt", gt_dir, "--pred", pred, "--classes", "1",
                    "--out-dir", tmp_path / "out"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == (f"error: {bad}: line 1: not UTF-8 text: invalid continuation byte 0xc3 "
                       "(at or after this line)\n")

    def test_predictions_through_a_pipe_match_the_file(self, tmp_path, monkeypatch):
        # the stream reader needs no file size; small chunks and blocks make
        # many reads of the pipe
        pred = os.path.join(regenerate.EVAL_DIR, "predictions.txt")
        args = ["eval", "--gt", os.path.join(regenerate.EVAL_DIR, "gt"), "--classes", "10"]
        assert run(args + ["--pred", pred, "--out-dir", tmp_path / "a"]) == 0
        fifo = tmp_path / "p.fifo"
        os.mkfifo(fifo)
        with open(pred, "rb") as fh:
            data = fh.read()
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        monkeypatch.setattr(evaluation, "READ_CHUNK_CHARS", 997)
        monkeypatch.setattr(evaluation, "PARSE_BLOCK_LINES", 64)
        assert run(args + ["--pred", fifo, "--out-dir", tmp_path / "b"]) == 0
        writer.join(timeout=10)
        assert not writer.is_alive()
        names = sorted(os.listdir(tmp_path / "a"))
        assert len(names) == 12 and sorted(os.listdir(tmp_path / "b")) == names
        for name in names:
            assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()


class TestVerifyCommand:
    def _stub_results(self, all_pass=True):
        return [
            CheckResult("alpha", True, "ok", "exact", 0.1),
            CheckResult("beta", all_pass, "meh", "exact", 0.2),
        ]

    def test_json_document(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_all", lambda **kw: self._stub_results())
        assert run(["verify", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [entry["name"] for entry in doc] == ["alpha", "beta"]
        assert all(entry["passed"] for entry in doc)

    def test_failing_check_exits_nonzero(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_all", lambda **kw: self._stub_results(False))
        assert run(["verify"]) == 1
        assert "[FAIL] beta" in capsys.readouterr().out

    def test_zero_toy_steps_is_usage_error(self):
        assert run(["verify", "--toy-steps", "0"]) == 2

    def test_python_dash_m_runs_the_cli_from_a_source_checkout(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run([sys.executable, "-m", "yolokit", "--version"],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"yolokit {yolokit.__version__}\n"

    def test_fault_flag_reaches_the_battery(self, monkeypatch, capsys):
        seen = {}

        def spy(**kwargs):
            seen.update(kwargs)
            return self._stub_results()

        monkeypatch.setattr(cli, "run_all", spy)
        assert run(["verify", "--inject-grad-fault", "0.01"]) == 0
        assert seen["fault"] == 0.01


class TestTrainToyCommand:
    def test_writes_history_csv(self, tmp_path, capsys):
        out = tmp_path / "loss.csv"
        assert run(["train-toy", "--steps", "2", "--seed", "0", "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "step,loss"
        assert len(lines) == 3
        assert "loss" in capsys.readouterr().out

    def test_negative_steps_usage_error(self, tmp_path):
        assert run(["train-toy", "--steps", "-1", "--out", tmp_path / "x.csv"]) == 2


class TestDestinations:
    """An output that cannot be written fails (exit 1), naming it, before
    any input is read; every input here is missing. An existing output is
    left as it was. An output that is one of the inputs is a usage error
    (exit 2)."""

    @pytest.mark.parametrize("command, flag, dest", [
        ("detect", "--out", "nodir/p.txt"),
        ("detect", "--out", "adir"),
        ("detect", "--render", "afile"),
        ("detect", "--render", "afile/x"),
        ("eval", "--out-dir", "afile"),
        ("eval", "--out-dir", "afile/x"),
        ("train-toy", "--out", "nodir/loss.csv"),
        ("train-toy", "--out", "adir"),
    ])
    def test_unwritable_output_fails_before_reading(self, tmp_path, capsys, monkeypatch,
                                                    command, flag, dest):
        monkeypatch.setattr(cli, "synthetic_dataset",
                            lambda **kw: pytest.fail("training began"))
        kept = tmp_path / "kept.txt"
        kept.write_text("kept\n")
        (tmp_path / "afile").write_text("a file\n")
        (tmp_path / "adir").mkdir()
        argv = {
            "detect": ["detect", tmp_path / "missing.ppm", "--model", "yolov3-tiny",
                       "--weights", tmp_path / "missing.weights", "--out", kept],
            "eval": ["eval", "--gt", tmp_path / "no-gt", "--pred", tmp_path / "no-pred.txt"],
            "train-toy": ["train-toy", "--steps", "1"],
        }[command]
        code = run(argv + [flag, tmp_path / dest])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {flag} {tmp_path / dest}: " in err
        assert "missing" not in err and "no-" not in err
        assert kept.read_text() == "kept\n"
        assert (tmp_path / "afile").read_text() == "a file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile", "kept.txt"]

    def test_missing_output_directory_is_made(self, scene, tmp_path):
        # makedirs still makes the missing tail of --render and --out-dir
        rendered = tmp_path / "a" / "b"
        assert run(["detect", scene, "--model", "yolov3-tiny", "--classes", "2",
                    "--size", "64", "--seed", "9", "--out", tmp_path / "p.txt",
                    "--render", rendered]) == 0
        assert (rendered / "scene.ppm").exists()

    @pytest.mark.parametrize("flag, dest, shown", [
        ("--render", "d", "d/a.ppm"),            # the rendered copy of d/a.ppm is d/a.ppm
        ("--render", "d/../d", "d/../d/a.ppm"),
        ("--render", "alias", "alias/a.ppm"),    # a symlink to d
        ("--out", "d/a.ppm", "d/a.ppm"),
        ("--out", "d/b.ppm", "d/b.ppm"),         # the second input
        ("--out", "link.ppm", "link.ppm"),       # a symlink to d/a.ppm
        ("--out", "hard.ppm", "hard.ppm"),       # a hard link to d/a.ppm
    ])
    def test_output_that_is_an_input_fails_before_any_work(
            self, tmp_path, capsys, monkeypatch, flag, dest, shown):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "random_init", lambda *a, **kw: pytest.fail("detect began"))
        rng = np.random.default_rng(11)
        (tmp_path / "d").mkdir()
        write_ppm(tmp_path / "d" / "a.ppm",
                  np.round(rng.uniform(0, 1, (3, 64, 96)) * 255).astype(np.uint8))
        write_ppm(tmp_path / "d" / "b.ppm",
                  np.round(rng.uniform(0, 1, (3, 32, 32)) * 255).astype(np.uint8))
        (tmp_path / "alias").symlink_to(tmp_path / "d")
        (tmp_path / "link.ppm").symlink_to(tmp_path / "d" / "a.ppm")
        os.link(tmp_path / "d" / "a.ppm", tmp_path / "hard.ppm")
        before = {name: (tmp_path / "d" / name).read_bytes() for name in ("a.ppm", "b.ppm")}
        argv = ["detect", "d/a.ppm", "d/b.ppm", "--model", "yolov3-tiny", "--classes", "2",
                "--size", "64", "--seed", "9", "--out", "d/p.txt", "--render", "r"]
        argv[argv.index(flag) + 1] = dest
        assert run(argv) == 2
        source = "d/b.ppm" if dest == "d/b.ppm" else "d/a.ppm"
        assert f"usage error: {flag} would write {shown} over the input image {source}" in (
            capsys.readouterr().err)
        assert {name: (tmp_path / "d" / name).read_bytes() for name in before} == before
        assert not (tmp_path / "d" / "p.txt").exists() and not (tmp_path / "r").exists()

    @pytest.mark.parametrize("out, render", [
        ("r/scene0.ppm", "r"),          # the rendered copy of scene0.ppm
        ("r/../r/scene0.ppm", "r"),
        ("alias/scene0.ppm", "r"),      # alias is a symlink to r
        ("r/scene0.ppm", "alias"),
        ("link.ppm", "r"),              # a symlink to r/scene0.ppm, not yet made
        ("hard.ppm", "r"),              # a hard link to an earlier run's copy
    ])
    def test_out_that_is_a_render_copy_fails_before_any_image_is_read(
            self, tmp_path, capsys, monkeypatch, out, render):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "random_init", lambda *a, **kw: pytest.fail("detect began"))
        monkeypatch.setattr(cli, "read_ppm", lambda path: pytest.fail("an image was read"))
        write_ppm(tmp_path / "scene0.ppm", np.zeros((3, 8, 8), dtype=np.uint8))
        (tmp_path / "r").mkdir()
        (tmp_path / "alias").symlink_to(tmp_path / "r")
        (tmp_path / "link.ppm").symlink_to(tmp_path / "r" / "scene0.ppm")
        if out == "hard.ppm":
            (tmp_path / "r" / "scene0.ppm").write_bytes(b"an earlier render")
            os.link(tmp_path / "r" / "scene0.ppm", tmp_path / "hard.ppm")
        files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
        before = {path: path.read_bytes() for path in files}
        assert run(["detect", "scene0.ppm", "--model", "yolov3-tiny", "--classes", "2",
                    "--size", "64", "--out", out, "--render", render]) == 2
        copy = os.path.join(render, "scene0.ppm")
        assert f"usage error: --out {out} is the --render copy {copy}" in (
            capsys.readouterr().err)
        assert sorted(p for p in tmp_path.rglob("*") if p.is_file()) == files
        assert {path: path.read_bytes() for path in files} == before

    @pytest.mark.parametrize("out, render", [
        ("r", "r"),
        ("r", "r/x"),            # r is a missing ancestor of the render directory
        ("here/r", "r"),         # here is a symlink to the working directory
        ("r/x", "./r/x/../x"),
    ])
    def test_out_that_render_would_make_fails_before_any_work(
            self, tmp_path, capsys, monkeypatch, out, render):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "random_init", lambda *a, **kw: pytest.fail("detect began"))
        monkeypatch.setattr(cli, "read_ppm", lambda path: pytest.fail("an image was read"))
        write_ppm(tmp_path / "scene0.ppm", np.zeros((3, 8, 8), dtype=np.uint8))
        (tmp_path / "here").symlink_to(tmp_path)
        if out == "r/x":
            (tmp_path / "r").mkdir()
        before = sorted(tmp_path.rglob("*"))
        assert run(["detect", "scene0.ppm", "--model", "yolov3-tiny", "--classes", "2",
                    "--size", "64", "--out", out, "--render", render]) == 2
        assert (f"usage error: --out {out} is a directory that --render {render} would make"
                in capsys.readouterr().err)
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("argv, classes", [
        (["--model", "yolov3-tiny"], 80),
        (["--model", "yolov3-tiny", "--classes", "3"], 3),
        (["--cfg", "toy.cfg"], 2),
        (["--cfg", "toy.cfg", "--classes", "2"], 2),
    ])
    def test_classes_default_for_a_builtin_and_agree_with_a_cfg(
            self, tmp_path, monkeypatch, argv, classes):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "toy.cfg").write_text(render_cfg(toy_graph(num_classes=2)))
        graph = cli._resolve_graph(cli.build_parser().parse_args(["detect", "a.ppm", *argv]))
        assert {layer.attrs["classes"] for layer in graph.layers if layer.kind == "yolo"} == {
            classes}

    @pytest.mark.parametrize("classes, cfg_classes, found", [
        ("10", 2, "[yolo] classes=2"),
        ("1", 2, "[yolo] classes=2"),
        ("0", 2, "[yolo] classes=2"),
        ("2", None, "no [yolo] layer"),  # a graph without heads
    ])
    def test_classes_other_than_the_cfg_fail_before_any_image_is_read(
            self, scene, tmp_path, capsys, monkeypatch, classes, cfg_classes, found):
        monkeypatch.setattr(cli, "read_ppm", lambda path: pytest.fail("an image was read"))
        path, out = tmp_path / "model.cfg", tmp_path / "p.txt"
        path.write_text(HEADLESS_CFG if cfg_classes is None
                        else render_cfg(toy_graph(num_classes=cfg_classes)))
        assert run(["detect", scene, "--cfg", path, "--classes", classes,
                    "--size", "64", "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"usage error: --classes {classes}: {path} has {found}\n")
        assert not out.exists()

    @pytest.mark.parametrize("dest, kind", [
        ("toy.weights", "weights file"),
        ("toy.cfg", "model definition"),
    ])
    def test_output_over_the_weights_or_cfg_fails_before_any_work(
            self, scene, tmp_path, capsys, monkeypatch, dest, kind):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "load_weights_file", lambda *a, **kw: pytest.fail("detect began"))
        (tmp_path / "toy.cfg").write_text(render_cfg(toy_graph()))
        save_weights_file(random_init(toy_graph(), seed=5), tmp_path / "toy.weights")
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        assert run(["detect", scene, "--cfg", "toy.cfg", "--weights", "toy.weights",
                    "--size", "64", "--out", dest, "--render", "r"]) == 2
        source = "toy.cfg" if kind == "model definition" else "toy.weights"
        assert f"usage error: --out would write {dest} over the {kind} {source}" in (
            capsys.readouterr().err)
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("out_dir, pred, message", [
        # the prediction file is out/report.txt
        ("out", "out/report.txt",
         "--out-dir would write out/report.txt over the prediction file out/report.txt"),
        ("links", "p.txt", "--out-dir would write links/pr_class3.csv over the prediction file "
                           "p.txt"),     # a hard link to p.txt
        ("links", "p.txt", "--out-dir would write links/report.csv over the annotation file "
                           "gt/a.txt"),  # a symlink to gt/a.txt
        ("gt", "p.txt", "--out-dir gt is the annotation directory gt"),
        ("gt/../gt", "p.txt", "--out-dir gt/../gt is the annotation directory gt"),
        ("alias", "p.txt", "--out-dir alias is the annotation directory gt"),  # a symlink to gt
    ])
    def test_eval_output_that_is_an_input_fails_before_any_work(
            self, tmp_path, capsys, monkeypatch, out_dir, pred, message):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "load_ground_truth", lambda *a: pytest.fail("eval began"))
        for name in ("gt", "out", "links"):
            (tmp_path / name).mkdir()
        (tmp_path / "gt" / "a.txt").write_text("684,8,273,116,0,1,0,0\n")
        (tmp_path / "gt" / "b.txt").write_text("10,20,30,40,1,2,0,0\n")
        (tmp_path / "out" / "report.txt").write_text("a 0 0.9 684 8 273 116\n")
        (tmp_path / "p.txt").write_text("b 1 0.5 10 20 30 40\n")
        (tmp_path / "alias").symlink_to(tmp_path / "gt")
        if "pr_class3" in message:
            os.link(tmp_path / "p.txt", tmp_path / "links" / "pr_class3.csv")
        else:
            (tmp_path / "links" / "report.csv").symlink_to(tmp_path / "gt" / "a.txt")
        files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
        before = {path: path.read_bytes() for path in files}
        assert run(["eval", "--gt", "gt", "--pred", pred, "--out-dir", out_dir]) == 2
        assert f"usage error: {message}" in capsys.readouterr().err
        assert sorted(p for p in tmp_path.rglob("*") if p.is_file()) == files
        assert {path: path.read_bytes() for path in files} == before


# a graph without heads: only shape_check's first bound, 1x1, limits its size
HEADLESS_CFG = """\
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


def _detect_argv(tmp_path, *model):
    return ["detect", tmp_path / "missing.ppm", *model, "--weights", tmp_path / "missing.weights",
            "--out", tmp_path / "out" / "p.txt"]


def _headless_argv(tmp_path):
    cfg = tmp_path / "headless.cfg"
    cfg.write_text(HEADLESS_CFG)
    return _detect_argv(tmp_path, "--cfg", cfg)


def _tiny_argv(tmp_path):
    return _detect_argv(tmp_path, "--model", "yolov3-tiny")


def _eval_argv(tmp_path):
    return ["eval", "--gt", tmp_path / "no-gt", "--pred", tmp_path / "no-pred.txt",
            "--out-dir", tmp_path / "out"]


def _verify_argv(tmp_path):
    return ["verify"]


def _train_toy_argv(tmp_path):
    return ["train-toy", "--out", tmp_path / "out" / "loss.csv"]


def _tiny_size(size):
    shape_check(builtin_graph("yolov3_tiny", 80), size, size)


# Every ranged flag of every command: its argv with every input file
# missing, the library checker that owns the range, the flag's type, and
# values at and just beyond each bound (nextafter of float bounds), each
# with whether the range accepts it.
_OUT, _IN = False, True
RANGED_FLAGS = [
    (_tiny_argv, "--conf", check_conf_threshold, float, [
        ("0", _IN), ("-5e-324", _OUT), ("0.25", _IN), ("0.9999999999999999", _IN),
        ("1", _OUT), ("nan", _OUT), ("inf", _OUT), ("-inf", _OUT)]),
    (_tiny_argv, "--nms", check_nms_threshold, float, [
        ("0", _OUT), ("5e-324", _IN), ("0.45", _IN), ("0.9999999999999999", _IN),
        ("1", _OUT), ("nan", _OUT), ("inf", _OUT)]),
    (_tiny_argv, "--classes", check_num_classes, int, [
        ("1", _IN), ("0", _OUT), ("-3", _OUT), ("nan", _OUT), ("inf", _OUT)]),
    (_tiny_argv, "--size", _tiny_size, int, [
        ("32", _IN), ("31", _OUT), ("33", _OUT), ("1", _OUT), ("0", _OUT), ("-32", _OUT),
        ("48", _OUT), ("100", _OUT), ("nan", _OUT), ("inf", _OUT)]),
    (_headless_argv, "--size", lambda size: shape_check(parse_cfg(HEADLESS_CFG), size, size),
     int, [("1", _IN), ("7", _IN), ("0", _OUT), ("-1", _OUT), ("nan", _OUT), ("inf", _OUT)]),
    (_eval_argv, "--classes", check_num_classes, int, [
        ("1", _IN), ("0", _OUT), ("-3", _OUT), ("nan", _OUT), ("inf", _OUT)]),
    (_eval_argv, "--conf", check_score_threshold, float, [
        ("0", _IN), ("-5e-324", _OUT), ("-0.1", _OUT), ("1", _IN),
        ("1.0000000000000002", _OUT), ("1.5", _OUT), ("nan", _OUT), ("inf", _OUT),
        ("-inf", _OUT)]),
    (_eval_argv, "--iou", check_iou_threshold, float, [
        ("0", _OUT), ("5e-324", _IN), ("1e-9", _IN), ("1", _IN), ("1.0000000000000002", _OUT),
        ("1.0001", _OUT), ("nan", _OUT), ("inf", _OUT)]),
    (_verify_argv, "--toy-steps", check_toy_steps, int, [
        ("1", _IN), ("0", _OUT), ("-1", _OUT), ("nan", _OUT), ("inf", _OUT)]),
    (_train_toy_argv, "--steps", lambda steps: ToyTrainConfig(steps=steps), int, [
        ("0", _IN), ("-1", _OUT), ("nan", _OUT), ("inf", _OUT)]),
] + [
    (argv, "--seed", check_seed, int, [
        ("0", _IN), ("-1", _OUT), ("-3", _OUT), ("nan", _OUT), ("inf", _OUT)])
    for argv in (_tiny_argv, _verify_argv, _train_toy_argv)
]


class TestRangedFlags:
    @pytest.mark.parametrize("argv, flag, check, kind, text, accepted", [
        pytest.param(argv, flag, check, kind, text, accepted,
                     id=f"{argv.__name__[1:-5]}{flag}={text}")
        for argv, flag, check, kind, cases in RANGED_FLAGS for text, accepted in cases
    ])
    def test_usage_error_before_reading_exactly_when_checker_raises(
            self, tmp_path, capsys, monkeypatch, argv, flag, check, kind, text, accepted):
        monkeypatch.setattr(cli, "run_all", lambda **kw: [])  # verify runs no check
        try:
            value = kind(text)
        except ValueError:  # not of the flag's type: argparse's own usage error
            value = None
        else:
            try:
                check(value)
                raised = False
            except (ValidationError, GraphValidationError):
                raised = True
            assert raised != accepted
        try:
            # one token, so argparse takes "-inf" and "-5e-324" as values
            code = run(argv(tmp_path) + [f"{flag}={text}"])
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        # no input exists: an accepted value fails (exit 1) on the missing
        # output directory or the first file read (or, for verify, runs the
        # stubbed battery); a rejected one never gets there
        if not accepted:
            assert code == 2
        else:
            assert code == (0 if argv is _verify_argv else 1)
        if value is not None and not accepted:
            assert f"usage error: {flag} {value}: " in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["detect", "verify", "train-toy"])
    @pytest.mark.parametrize("source", ["--seed", "YOLOKIT_SEED"])
    def test_negative_seed_is_usage_error_before_any_output(self, scene, tmp_path, monkeypatch,
                                                            capsys, command, source):
        out = tmp_path / "out.txt"
        argv = {"detect": ["detect", scene, "--model", "yolov3-tiny", "--classes", "2",
                           "--size", "64", "--out", out],
                "verify": ["verify"],
                "train-toy": ["train-toy", "--steps", "1", "--out", out]}[command]
        battery = []
        monkeypatch.setattr(cli, "run_all", lambda **kw: battery.append(kw) or [])
        value = -1 if source == "--seed" else -3
        if source == "--seed":
            argv.append(f"--seed={value}")
        else:
            monkeypatch.setenv("YOLOKIT_SEED", str(value))
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"usage error: {source} {value}: seed must be >= 0, got {value}\n"
        assert captured.out == ""
        assert not out.exists() and battery == []
