"""Golden outputs: ``eval``, ``detect`` and ``train-toy`` write the committed bytes.

The fixtures under ``tests/golden`` were written by ``tests/golden/regenerate.py``:
the eval and detect ones before detections became columnar. The training
history was written when training moved to float32 (within 8.0e-8 relative
of the float64 history it replaced), and again when the synthetic frames
became 8-bit and went through ``letterbox``: the noise and colors were
rounded to 8-bit levels, which moved the seed-0 losses by at most 1.9e-4
absolute (5.8e-5 relative) over the 20 steps. A change that alters any
report file, any stdout line, the prediction file, the rendered PPM or any
bit of a training loss fails here.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden"))
import regenerate  # noqa: E402


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_eval_outputs_byte_identical(tmp_path):
    out_dir = str(tmp_path / "eval")
    stdout = regenerate.run_cli(regenerate.eval_argv(out_dir))
    expected = os.path.join(regenerate.EVAL_DIR, "expected")
    assert stdout == _read(os.path.join(expected, "stdout.txt")).decode("utf-8")
    names = sorted(n for n in os.listdir(expected) if n != "stdout.txt")
    assert sorted(os.listdir(out_dir)) == names
    assert "report.txt" in names and "report.csv" in names and "pr_class9.csv" in names
    for name in names:
        assert _read(os.path.join(out_dir, name)) == _read(os.path.join(expected, name)), name


def test_detect_outputs_byte_identical(tmp_path):
    out = str(tmp_path / "predictions.txt")
    render = str(tmp_path / "render")
    stdout = regenerate.run_cli(regenerate.detect_argv(out, render))
    expected = os.path.join(regenerate.DETECT_DIR, "expected")
    assert stdout.replace(out, "{out}") == _read(os.path.join(expected, "stdout.txt")).decode()
    predictions = _read(out)
    assert predictions == _read(os.path.join(expected, "predictions.txt"))
    assert {line.split()[0] for line in predictions.decode().splitlines()} == {"scene0", "scene1"}
    assert _read(os.path.join(render, regenerate.RENDERED)) == _read(
        os.path.join(expected, "render", regenerate.RENDERED))


def test_train_toy_history_byte_identical(tmp_path):
    out = str(tmp_path / "loss.csv")
    stdout = regenerate.run_cli(regenerate.train_argv(out))
    assert stdout == _read(os.path.join(regenerate.TRAIN_DIR, "stdout.txt")).decode("utf-8")
    history = _read(out)
    assert history.count(b"\n") == regenerate.TRAIN_STEPS + 1
    assert history == _read(os.path.join(regenerate.TRAIN_DIR, "loss.csv"))
