"""Command-line surface: detect, eval, verify, train-toy.

Exit codes: 0 success, 1 runtime failure (bad files, failed checks),
2 usage error (bad flags or argument combinations). All randomized behavior
is seeded through --seed (default from $YOLOKIT_SEED, else 0; a non-integer
or negative seed is a usage error), so identical invocations produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import stat
import sys

import numpy as np

from . import __version__
from .cfg import builtin_graph, check_num_classes, parse_cfg, shape_check, toy_graph
from .detect import Detections, check_conf_threshold, check_nms_threshold, decode, letterbox, nms
from .errors import (
    CfgParseError,
    GraphValidationError,
    UsageError,
    ValidationError,
    YoloKitError,
    undecodable,
)
from .evaluation import (
    annotation_files,
    check_image_id,
    check_iou_threshold,
    check_score_threshold,
    evaluate,
    format_predictions,
    format_report_table,
    load_ground_truth,
    parse_predictions,
    report_file_names,
    write_report_files,
)
from .loss import ToyTrainConfig, synthetic_dataset, train_toy
from .ppm import PALETTE, read_ppm, render_detections, write_ppm
from .verify import run_all
from .weights import check_seed, load_weights_file, random_init

_PALETTE_DOC = ", ".join(f"{i}:{rgb}" for i, rgb in enumerate(PALETTE))


def _resolve_seed(args) -> int:
    """``--seed``, else ``$YOLOKIT_SEED``, else 0, checked by the library's
    ``check_seed``; call it before any file is read or made. A non-integer
    or out-of-range value is a usage error naming where it came from."""
    if args.seed is not None:
        source, value = "--seed", args.seed
    else:
        source, value = "YOLOKIT_SEED", os.environ.get("YOLOKIT_SEED", "0")
    try:
        seed = int(value)
    except ValueError:
        raise UsageError(f"{source} must be an integer, got {value!r}") from None
    _check_flag(source, seed, check_seed)
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yolokit",
        description="Desk-scale one-stage detector kit: detect, evaluate, verify.",
    )
    parser.add_argument("--version", action="version", version=f"yolokit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    det = sub.add_parser(
        "detect",
        help="run a model on P6 PPM images and write a prediction file",
        description=(
            "Runs the detector on binary P6 PPM images. Rendered outputs use a "
            f"fixed 10-color class palette (class:RGB): {_PALETTE_DOC}."
        ),
    )
    det.add_argument("images", nargs="+", help="input images (binary P6 PPM)")
    det.add_argument("--model", choices=["yolov3", "yolov3-spp", "yolov3-tiny"],
                     help="builtin model variant")
    det.add_argument("--cfg", help="model definition file (overrides --model)")
    det.add_argument("--classes", type=int,
                     help="class count for builtin models (default 80); with --cfg, "
                          "if given, it must equal the file's [yolo] classes")
    det.add_argument("--weights", help="binary weights file; omit for seeded random init")
    det.add_argument("--size", type=int, default=640, help="square input size (default 640)")
    det.add_argument("--conf", type=float, default=0.25,
                     help="confidence threshold (default 0.25)")
    det.add_argument("--nms", type=float, default=0.45,
                     help="NMS IoU threshold (default 0.45)")
    det.add_argument("--out", default="predictions.txt",
                     help="prediction file to write; not one of the --render copies")
    det.add_argument("--render", metavar="DIR",
                     help="also write box-rendered PPM copies into DIR, as DIR/<image id>.ppm")
    det.add_argument("--precision", choices=["double", "single"], default="double",
                     help="compute precision (default double)")
    det.add_argument("--seed", type=int, default=None, help="random-init seed")

    ev = sub.add_parser("eval", help="score a prediction file against ground truth")
    ev.add_argument("--gt", required=True, help="directory of per-image annotation .txt files")
    ev.add_argument("--pred", required=True, help="prediction file")
    ev.add_argument("--classes", type=int, default=10, help="class count (default 10)")
    ev.add_argument("--iou", type=float, default=0.5,
                    help="matching IoU threshold (default 0.5)")
    ev.add_argument("--conf", type=float, default=None,
                    help="only score detections at or above this confidence")
    ev.add_argument("--out-dir", default="eval_out",
                    help="directory for the table, CSV and PR curves (default eval_out)")

    ver = sub.add_parser("verify", help="run the full self-verification battery")
    ver.add_argument("--json", action="store_true", help="machine-readable results")
    ver.add_argument("--seed", type=int, default=None)

    toy = sub.add_parser("train-toy", help="train the micro-model on synthetic data")
    toy.add_argument("--steps", type=int, default=200)
    toy.add_argument("--seed", type=int, default=None)
    toy.add_argument("--out", default="toy_loss.csv", help="loss-history CSV to write")
    return parser


def _check_flag(flag: str, value, check) -> None:
    """Run the library's own checker on a flag's value, before any file is
    read; what it rejects is a usage error naming the flag."""
    try:
        check(value)
    except (ValidationError, GraphValidationError) as exc:
        raise UsageError(f"{flag} {value}: {exc}") from None


def _check_destination(flag: str, path, is_dir: bool = False) -> None:
    """Fail (exit 1) before any input is read where writing ``path`` at the
    end of the run would fail: a file needs an existing directory and must
    not be one; a directory, made with ``os.makedirs``, needs its nearest
    existing ancestor to be a directory. Nothing is opened or made, so an
    existing output is left as it is."""
    base = os.path.abspath(path)
    if is_dir:
        while not os.path.lexists(base):
            base = os.path.dirname(base)
    elif os.path.isdir(base):
        raise OSError(f"{flag} {path}: is a directory")
    else:
        base = os.path.dirname(base)
    if not os.path.isdir(base):
        raise OSError(f"{flag} {path}: {base} is not a directory")


def _check_inputs(paths) -> None:
    """Fail (exit 1) before any input is read on the first path that cannot
    be looked up (``os.stat``'s own error) or is a directory. Only the name
    is looked up, so a pipe is left unread."""
    for path in paths:
        if stat.S_ISDIR(os.stat(path).st_mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _made_directories(path) -> list[str]:
    """The real paths of the directories ``os.makedirs(path)`` would make:
    ``path`` and each missing ancestor."""
    made = []
    path = os.path.abspath(path)
    while not os.path.lexists(path):
        made.append(os.path.realpath(path))
        path = os.path.dirname(path)
    return made


def _file_key(path):
    """(device, inode) of an existing file, so two names of one file (a
    relative path, a symlink, a hard link) compare equal; None otherwise."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_dev, st.st_ino


def _check_not_an_input(destinations, inputs) -> None:
    """Refuse (usage error) any (flag, path) destination that is one of the
    (kind, path) ``inputs`` files, before any work, naming both paths."""
    sources = {_file_key(path): (kind, path) for kind, path in inputs}
    sources.pop(None, None)
    for flag, path in destinations:
        hit = sources.get(_file_key(path))
        if hit is not None:
            kind, source = hit
            raise UsageError(f"{flag} would write {path} over the {kind} {source}")


def _resolve_graph(args):
    """The ``--cfg`` file's graph, where a given ``--classes`` must equal its
    ``[yolo]`` classes, or the builtin ``--model`` at ``--classes`` (80 if
    unset); a mismatch or a missing model is a usage error."""
    if args.cfg:
        with open(args.cfg, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise CfgParseError(f"{args.cfg}: {undecodable(exc)}") from None
        graph = parse_cfg(text)
        classes = {layer.attrs["classes"] for layer in graph.layers if layer.kind == "yolo"}
        if args.classes is not None and classes != {args.classes}:
            found = f"[yolo] classes={classes.pop()}" if classes else "no [yolo] layer"
            raise UsageError(f"--classes {args.classes}: {args.cfg} has {found}")
        return graph
    if not args.model:
        raise UsageError("pick a model with --model or supply --cfg")
    classes = 80 if args.classes is None else args.classes
    _check_flag("--classes", classes, check_num_classes)
    return builtin_graph(args.model.replace("-", "_"), classes)


def cmd_detect(args) -> int:
    _check_flag("--conf", args.conf, check_conf_threshold)
    _check_flag("--nms", args.nms, check_nms_threshold)
    seed = _resolve_seed(args)
    image_ids = [os.path.splitext(os.path.basename(path))[0] for path in args.images]
    first_path = {}  # image id -> the image that gives it
    for path, image_id in zip(args.images, image_ids):
        _check_flag("image", path, lambda _: check_image_id(image_id))
        if image_id in first_path:
            raise UsageError(f"images {first_path[image_id]} and {path} both give image id "
                             f"{image_id!r}")
        first_path[image_id] = path
    graph = _resolve_graph(args)
    _check_flag("--size", args.size, lambda size: shape_check(graph, size, size))
    _check_destination("--out", args.out)
    destinations = [("--out", args.out)]
    if args.render:
        _check_destination("--render", args.render, is_dir=True)
        if os.path.realpath(args.out) in _made_directories(args.render):
            raise UsageError(f"--out {args.out} is a directory that --render {args.render} "
                             "would make")
        copies = [os.path.join(args.render, f"{image_id}.ppm") for image_id in image_ids]
        out_key = _file_key(args.out)
        for copy in copies:
            if (os.path.realpath(copy) == os.path.realpath(args.out)
                    or out_key is not None and _file_key(copy) == out_key):
                raise UsageError(f"--out {args.out} is the --render copy {copy}")
        destinations += [("--render", copy) for copy in copies]
    inputs = [("input image", path) for path in args.images]
    inputs += [(kind, path) for kind, path in [("weights file", args.weights),
                                                ("model definition", args.cfg)] if path]
    _check_not_an_input(destinations, inputs)
    _check_inputs(args.images)
    dtype = np.float64 if args.precision == "double" else np.float32
    if args.weights:
        net = load_weights_file(graph, args.weights, dtype=dtype)
    else:
        net = random_init(graph, seed=seed, dtype=dtype)
    net.freeze()

    per_image = []
    for path, image_id in zip(args.images, image_ids):
        image = read_ppm(path)
        boxed, transform = letterbox(image, args.size, dtype)
        heads = net.forward(boxed)
        candidates = Detections.concat(decode(head, args.conf, transform, image_id)
                                       for head in heads)
        detections = nms(candidates, args.nms)
        per_image.append(detections)
        if args.render:
            os.makedirs(args.render, exist_ok=True)
            rendered = render_detections(image, detections)
            write_ppm(os.path.join(args.render, f"{image_id}.ppm"), rendered)
    all_detections = Detections.concat(per_image)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(format_predictions(all_detections))
    print(f"{len(all_detections)} detections -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    _check_flag("--iou", args.iou, check_iou_threshold)
    _check_flag("--classes", args.classes, check_num_classes)
    _check_flag("--conf", args.conf, check_score_threshold)
    _check_destination("--out-dir", args.out_dir, is_dir=True)
    gt_key = _file_key(args.gt)
    if gt_key is not None and _file_key(args.out_dir) == gt_key:
        raise UsageError(f"--out-dir {args.out_dir} is the annotation directory {args.gt}")
    inputs = [("prediction file", args.pred)]
    inputs += [("annotation file", os.path.join(args.gt, name))
               for name in annotation_files(args.gt)]
    _check_not_an_input([("--out-dir", os.path.join(args.out_dir, name))
                         for name in report_file_names(args.classes)], inputs)
    _check_inputs([args.pred])
    truth = load_ground_truth(args.gt)
    with open(args.pred, encoding="utf-8") as fh:
        detections = parse_predictions(fh)
    report = evaluate(detections, truth, args.classes,
                      iou_threshold=args.iou, score_threshold=args.conf)
    write_report_files(report, args.out_dir)
    print(format_report_table(report), end="")
    print(f"mAP50 {report.map_percent:.1f}")
    return 0


def cmd_verify(args) -> int:
    results = run_all(seed=_resolve_seed(args))
    if args.json:
        print(json.dumps(
            [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "measured": r.measured,
                    "limit": r.limit,
                    "seconds": round(r.seconds, 3),
                }
                for r in results
            ],
            indent=2,
        ))
    else:
        for r in results:
            print(r.line())
    return 0 if all(r.passed for r in results) else 1


def cmd_train_toy(args) -> int:
    _check_flag("--steps", args.steps, ToyTrainConfig)  # the config checks itself when made
    seed = _resolve_seed(args)
    _check_destination("--out", args.out)
    dataset = synthetic_dataset(seed=seed)
    graph = toy_graph()
    history = train_toy(dataset, graph, ToyTrainConfig(steps=args.steps, seed=seed))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("step,loss\n")
        for step, value in enumerate(history):
            fh.write(f"{step},{value!r}\n")
    if history:
        print(f"loss {history[0]:.4f} -> {history[-1]:.4f} over {len(history)} steps")
    else:
        print("no steps run")
    return 0


_COMMANDS = {
    "detect": cmd_detect,
    "eval": cmd_eval,
    "verify": cmd_verify,
    "train-toy": cmd_train_toy,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (YoloKitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
