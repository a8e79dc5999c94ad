"""Self-tests of the benchmark: deterministic inputs, sensitive checks, tracing.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import generate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    first = generate.write_detect_images(7, str(tmp_path / "a"))
    second = generate.write_detect_images(7, str(tmp_path / "b"))
    other = generate.write_detect_images(8, str(tmp_path / "c"))
    for a, b, c in zip(first, second, other):
        with open(a, "rb") as fa, open(b, "rb") as fb, open(c, "rb") as fc:
            data_a, data_b, data_c = fa.read(), fb.read(), fc.read()
        assert data_a == data_b
        assert data_a != data_c
    assert generate.eval_image(7, 3) == generate.eval_image(7, 3)
    assert generate.eval_image(7, 3) != generate.eval_image(8, 3)


def test_weights_file_is_byte_identical_across_builds():
    from yolokit.weights import save_weights

    assert _sha(save_weights(generate.detect_network())) == _sha(
        save_weights(generate.detect_network()))


def _detect_fixture(tmp_path, lines):
    """A detect workload pointed at a hand-written prediction file."""
    workload = run.DetectWorkload("probe", "", size=640, precision="single", conf=0.25)
    workload.seed = run.REFERENCE_SEED + 1  # no reference comparison
    workload.image_ids = ["img0", "img1"]
    workload.sizes = {"img0": (8, 6), "img1": (6, 8)}
    render = tmp_path / "render0"
    render.mkdir()
    for image_id, (w, h) in workload.sizes.items():
        (render / f"{image_id}.ppm").write_bytes(b"P6\n%d %d\n255\n" % (w, h) + bytes(3 * w * h))
    pred = tmp_path / "pred0.txt"
    pred.write_text("\n".join(lines) + "\n")
    return workload, ["detect", "--out", str(pred), "--render", str(render)]


VALID = [
    "img0 1 0.9 100.0 100.0 40.0 30.0",
    "img0 1 0.8 300.0 100.0 40.0 30.0",
    "img0 2 0.7 101.0 100.0 40.0 30.0",
    "img1 0 0.5 50.0 60.0 20.0 20.0",
]


def _failed_ratio(workload, argv):
    problems = workload.check(argv)
    return sum(1 for found in problems.values() if found) / len(problems)


def test_valid_predictions_pass(tmp_path):
    assert _failed_ratio(*_detect_fixture(tmp_path, VALID)) == 0


def test_numpy_repr_token_raises_failed_ratio(tmp_path):
    lines = VALID[:-1] + ["img1 0 np.float64(0.5) 50.0 60.0 20.0 20.0"]
    assert _failed_ratio(*_detect_fixture(tmp_path, lines)) > 0


def test_same_class_overlap_raises_failed_ratio(tmp_path):
    lines = VALID + ["img1 0 0.4 52.0 60.0 20.0 20.0"]  # IoU 0.82 with the img1 box
    workload, argv = _detect_fixture(tmp_path, lines)
    problems = workload.check(argv)
    assert problems["img1"] and not problems["img0"]


def test_score_below_conf_raises_failed_ratio(tmp_path):
    lines = VALID + ["img0 3 0.1 500.0 500.0 10.0 10.0"]
    assert _failed_ratio(*_detect_fixture(tmp_path, lines)) > 0


def test_training_gate_rejects_a_loss_that_does_not_halve():
    good = "step,loss\n0,10.0\n1,4.0\n"
    bad = "step,loss\n0,10.0\n1,6.0\n"
    assert checks.check_training(good, 2) == ([], 0.4)
    assert checks.check_training(bad, 2)[0]
    assert checks.check_training("step,loss\n0,10.0\n1,nan\n", 2)[0]


def test_self_time_subtracts_direct_children():
    spans = [
        {"name": "network.forward", "start": 0.0, "end": 10.0, "parent": None,
         "request": "cmd0", "attrs": {}},
        {"name": "ops.conv2d_forward", "start": 1.0, "end": 4.0, "parent": 0,
         "request": "cmd0", "attrs": {"gflop": 6.0, "gbytes": 1.0, "kind": "conv3x3"}},
    ]
    values = tracing.summarize(spans, peak_gflops=4.0)
    assert values["network.forward.self_s"] == pytest.approx(7.0)
    assert values["ops.conv2d_forward.gflops"] == pytest.approx(2.0)
    assert values["ops.conv2d_forward.peak_ratio"] == pytest.approx(0.5)
    assert values["ops.conv3x3.s"] == pytest.approx(3.0)
    names = {name for name, _, _ in tracing.PER_LAYER}
    assert set(values) == names - {"loss.loss_ratio", "trace.overhead_ratio"}


def test_traced_cli_records_spans_and_reports_a_bypassed_name_as_missing(tmp_path, monkeypatch):
    from yolokit import cli

    image = tmp_path / "scene.ppm"
    image.write_bytes(generate.ppm_bytes(generate.detect_image(0, 1)))
    bogus = tracing.Patch("detect.renamed_away", "yolokit.cli", "no_such_function")
    monkeypatch.setattr(tracing, "PATCHES", tracing.PATCHES + (bogus,))
    with tracing.Tracer() as tracer:
        code = cli.main(["detect", str(image), "--model", "yolov3-tiny", "--classes", "2",
                         "--size", "64", "--out", str(tmp_path / "pred.txt")])
    assert code == 0
    from yolokit import detect

    assert cli.nms is detect.nms  # uninstalled: the original is back
    spans = tracer.to_json()
    missing, not_run = tracing.missing_spans(
        spans, tracer.unpatched, ("detect.nms", "network.forward", "ppm.render_detections"))
    assert missing == ["detect.renamed_away", "ppm.render_detections"]  # no --render given
    assert "evaluation.match" in not_run
    forward = [s for s in spans if s["name"] == "network.forward"]
    assert len(forward) == 1
    convs = [s for s in spans if s["name"] == "ops.conv2d_forward"]
    assert convs and all(spans[s["parent"]]["name"] == "network.forward" for s in convs)
    assert {s["request"] for s in convs} == {"cmd0/img0"}


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in run.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(
        tracing.PER_LAYER)
