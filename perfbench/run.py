"""yolokit benchmark: four workloads driven through ``yolokit.cli.main``.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Inputs are generated from ``--seed`` into a scratch directory of the
checkout; the kit sees only files and the argv a user would type. Each
workload runs in a fresh interpreter (``worker.py``) with BLAS threads
capped at the number of usable cores. Every command's outputs are checked;
an operation (one detect image, one training run, one eval run) with any
problem counts as failed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` measures the
same way, then runs one more command with spans recorded around the public
functions of each ``src/yolokit`` module and reports the per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(HERE, "reference")
REFERENCE_SEED = 0
DEADLINE_S = 170.0  # the whole run, children included, ends well inside 180 s
SETUP_PROBES = 5
MAX_COMMANDS = 50
END_TO_END_UNITS = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}

import checks  # noqa: E402  (perfbench's own modules, found next to this file)
import generate  # noqa: E402
import tracing  # noqa: E402


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    """Spawns worker processes under the run's deadline."""

    def __init__(self, work: str):
        self.work = work
        self.started = time.perf_counter()
        nproc = len(os.sched_getaffinity(0))
        threads = min(nproc, int(os.environ.get("OPENBLAS_NUM_THREADS", nproc)))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + os.pathsep + self.env.get("PYTHONPATH", "")
        self.env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts on every run
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(threads)
        self._outputs = 0

    def worker(self, mode: str, *args: str) -> dict:
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise BenchmarkError("out of time before the run finished")
        self._outputs += 1
        out = os.path.join(self.work, f"worker{self._outputs}.json")
        argv = [sys.executable, os.path.join(HERE, "worker.py"), mode, out, *args]
        try:
            proc = subprocess.run(argv, env=self.env, cwd=ROOT, timeout=remaining,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"worker {mode} ran past the deadline") from None
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchmarkError(f"worker {mode} exited with {proc.returncode}")
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

DETECT_SPANS = (
    "cfg.builtin_graph", "weights.load_weights_file", "ppm.read_ppm", "detect.letterbox",
    "network.forward", "ops.conv2d_forward", "ops.maxpool2d_forward", "ops.upsample2x",
    "ops.concat_channels", "ops.shortcut_add", "detect.decode", "detect.nms",
    "ppm.render_detections", "ppm.write_ppm", "evaluation.format_predictions",
)


class Workload:
    """One benchmark workload: its inputs, its command and its output checks."""

    name = why = item = ""
    has_reference = False  # a committed output for REFERENCE_SEED, see write_reference
    rate_name = ""  # the throughput name items_per_s stands for on this workload
    expected_spans: tuple[str, ...] = ()

    def prepare(self, seed: int, work: str) -> None:
        self.work, self.seed = work, seed

    @property
    def reference_path(self) -> str:
        return os.path.join(REFERENCE_DIR, f"{self.name}.json")

    def reference(self):
        """The committed output for the reference seed; None on other seeds."""
        if self.seed != REFERENCE_SEED:
            return None
        with open(self.reference_path, encoding="utf-8") as fh:
            return json.load(fh)

    def setup_args(self) -> list[str]:
        return []

    def peak_key(self) -> str:
        return "dgemm_peak_gflops"

    def extra_checks(self) -> dict[str, list[str]]:
        return {}

    def quality(self, argv: list[str]) -> float | None:
        return None


class DetectWorkload(Workload):
    item = "image"
    has_reference = True
    rate_name = "images_per_s"

    def __init__(self, name: str, why: str, size: int, precision: str, conf: float):
        self.name, self.why = name, why
        self.size, self.precision, self.conf = size, precision, conf
        self.nms = 0.45
        self.expected_spans = DETECT_SPANS

    def prepare(self, seed: int, work: str) -> None:
        super().prepare(seed, work)
        self.images = generate.write_detect_images(seed, os.path.join(work, "images"))
        self.image_ids = [os.path.splitext(os.path.basename(p))[0] for p in self.images]
        self.sizes = dict(zip(self.image_ids, generate.DETECT_IMAGE_SIZES))
        self.weights = os.path.join(work, "model.weights")
        generate.write_detect_weights(self.weights)

    @property
    def items_per_command(self) -> int:
        return len(self.images)

    def argv(self) -> list[str]:
        return ["detect", *self.images, "--model", generate.DETECT_MODEL.replace("_", "-"),
                "--classes", str(generate.DETECT_CLASSES), "--weights", self.weights,
                "--size", str(self.size), "--precision", self.precision,
                "--conf", str(self.conf), "--nms", str(self.nms),
                "--out", os.path.join(self.work, "pred{k}.txt"),
                "--render", os.path.join(self.work, "render{k}")]

    def setup_args(self) -> list[str]:
        return ["--model", generate.DETECT_MODEL, "--classes", str(generate.DETECT_CLASSES),
                "--weights", self.weights, "--precision", self.precision]

    def peak_key(self) -> str:
        return "sgemm_peak_gflops" if self.precision == "single" else "dgemm_peak_gflops"

    def check(self, argv: list[str]) -> dict[str, list[str]]:
        pred_path = argv[argv.index("--out") + 1]
        render_dir = argv[argv.index("--render") + 1]
        try:
            with open(pred_path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            return {image_id: [f"no prediction file: {exc}"] for image_id in self.image_ids}
        problems = checks.check_detections(text, self.image_ids, self.conf, self.nms)
        for image_id, found in checks.check_rendered(render_dir, self.sizes).items():
            problems[image_id] += found
        if self.seed == REFERENCE_SEED and not any(problems.values()):
            try:
                reference = self.reference()
            except OSError as exc:
                return {image_id: [f"no reference output: {exc}"] for image_id in self.image_ids}
            summary = checks.detection_summary(text)
            for image_id, found in checks.compare_detections(
                    summary, reference, self.precision).items():
                problems[image_id] += found
        return problems

    def write_reference(self, argv: list[str]) -> None:
        with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
            summary = checks.detection_summary(fh.read())
        with open(self.reference_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")


class TrainWorkload(Workload):
    item = "training image"
    rate_name = "train_images_per_s"
    name = "train_toy"
    why = ("toy training, the only workload with backward kernels, GradTape, loss and "
           "sgd_step; 64 px convs where per-call overhead outweighs GEMM rate")
    steps = 15
    batch = 16  # ToyTrainConfig.batch_size; the CLI trains with the default
    expected_spans = ("network.forward", "network.backward", "ops.conv2d_forward",
                      "loss.assign_targets", "loss.total_loss", "loss.loss_gradients",
                      "loss.sgd_step")

    @property
    def items_per_command(self) -> int:
        return self.steps * self.batch

    def argv(self) -> list[str]:
        return ["train-toy", "--steps", str(self.steps), "--seed", str(self.seed),
                "--out", os.path.join(self.work, "loss{k}.csv")]

    def _csv(self, argv: list[str]) -> str:
        with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
            return fh.read()

    def check(self, argv: list[str]) -> dict[str, list[str]]:
        try:
            problems, _ = checks.check_training(self._csv(argv), self.steps)
        except OSError as exc:
            problems = [f"no loss history: {exc}"]
        return {"run": problems}

    def quality(self, argv: list[str]) -> float | None:
        try:
            return checks.check_training(self._csv(argv), self.steps)[1]
        except OSError:
            return None


class EvalWorkload(Workload):
    item = "prediction"
    has_reference = True
    rate_name = "eval_dets_per_s"
    name = "eval_visdrone"
    why = ("VisDrone-scale mAP over 548 annotation files and 274k predictions; the only "
           "workload where evaluation (match, parse) is most of the run")
    expected_spans = ("evaluation.load_ground_truth", "evaluation.parse_predictions",
                      "evaluation.evaluate", "evaluation.match",
                      "evaluation.write_report_files")
    oracle_images = 3

    def prepare(self, seed: int, work: str) -> None:
        super().prepare(seed, work)
        self.gt_dir = os.path.join(work, "gt")
        self.pred_path = os.path.join(work, "predictions.txt")
        generate.write_eval_set(seed, self.gt_dir, self.pred_path)
        self.gt_counts, self.pred_counts = checks.eval_counts(self.gt_dir, self.pred_path)

    @property
    def items_per_command(self) -> int:
        return sum(self.pred_counts.values())

    def argv(self) -> list[str]:
        return ["eval", "--gt", self.gt_dir, "--pred", self.pred_path, "--classes", "10",
                "--out-dir", os.path.join(self.work, "eval{k}")]

    def _report(self, argv: list[str]) -> list[dict]:
        out_dir = argv[argv.index("--out-dir") + 1]
        with open(os.path.join(out_dir, "report.csv"), encoding="utf-8") as fh:
            return checks.read_report(fh.read())

    def check(self, argv: list[str]) -> dict[str, list[str]]:
        try:
            report = self._report(argv)
            reference = self.reference()
        except (OSError, KeyError, ValueError) as exc:
            return {"run": [f"unreadable report or reference: {exc}"]}
        return {"run": checks.check_report(report, self.gt_counts, self.pred_counts, reference)}

    def write_reference(self, argv: list[str]) -> None:
        with open(self.reference_path, "w", encoding="utf-8") as fh:
            json.dump(self._report(argv), fh, indent=1)
            fh.write("\n")

    def extra_checks(self) -> dict[str, list[str]]:
        """One more eval run: evaluate() against the brute-force oracle on a subset."""
        gt_texts, pred_lines = {}, []
        for index in range(self.oracle_images):
            gt_text, pred_text = generate.eval_image(self.seed, index)
            gt_texts[f"img{index:04d}"] = gt_text
            pred_lines.append(pred_text)
        return {"oracle-subset": checks.check_evaluator_oracle(gt_texts, "".join(pred_lines))}


WORKLOADS = {
    w.name: w
    for w in (
        DetectWorkload(
            "detect_sparse",
            "deployment detect, yolov3-spp at 640 px in float32 with ~400 candidates per "
            "image; the conv forward is ~90% of the run and NMS ~3%",
            size=640, precision="single", conf=0.25,
        ),
        DetectWorkload(
            "detect_dense",
            "low-threshold detect before mAP scoring, 416 px in float64 with ~5k candidates "
            "per image; NMS is over half the run",
            size=416, precision="double", conf=0.05,
        ),
        TrainWorkload(),
        EvalWorkload(),
    )
}


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def _check_commands(workload, commands: list[dict], tag: str) -> dict[str, list[str]]:
    problems: dict[str, list[str]] = {}
    for k, command in enumerate(commands):
        code = command["exit_code"]
        for op, found in workload.check(command["argv"]).items():
            problems[f"{tag}{k}/{op}"] = ([f"exit code {code}"] if code else []) + found
    return problems


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    scratch = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(scratch, f"{workload.name}-s{args.seed}-p{os.getpid()}")
    os.makedirs(work)
    try:
        runner = Runner(work)
        workload.prepare(args.seed, work)
        machine = runner.worker("machine")
        setups = []
        if not args.trace:
            setups = [runner.worker("setup", *workload.setup_args())["setup_s"]
                      for _ in range(SETUP_PROBES)]
        spec = os.path.join(work, "spec.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump({"argv": workload.argv(), "seconds": args.seconds,
                       "max_commands": MAX_COMMANDS}, fh)
        measured = runner.worker("run", spec)
        if args.write_reference:
            workload.write_reference(measured["commands"][0]["argv"])
        problems = _check_commands(workload, measured["commands"], "cmd")
        problems.update(workload.extra_checks())
        result = {"workload": workload, "machine": machine, "setups": setups,
                  "measured": measured, "problems": problems,
                  "quality": workload.quality(measured["commands"][0]["argv"])}
        if args.trace:
            spans_path = os.path.join(work, "spans.json")
            traced = runner.worker("run", spec, "--trace", spans_path)
            problems.update(_check_commands(workload, traced["commands"], "traced"))
            with open(spans_path, encoding="utf-8") as fh:
                result["spans"] = json.load(fh)
            result["traced"] = traced
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            kept = os.path.join(out_dir, f"{workload.name}-seed{args.seed}-spans.json")
            shutil.copyfile(spans_path, kept)
            result["spans_file"] = os.path.relpath(kept, ROOT)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)  # only when no other run is using it
        except OSError:
            pass


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def report(args, result: dict) -> dict:
    workload = result["workload"]
    machine = result["machine"]
    commands = result["measured"]["commands"]
    problems = result["problems"]
    failed = sorted(op for op, found in problems.items() if found)
    attempted = len(problems)
    walls = [c["wall_s"] for c in commands]
    per_s = statistics.median(workload.items_per_command / w for w in walls)

    print(f"machine: nproc {machine['nproc']}, {machine['blas']} with "
          f"{machine['blas_threads']} threads, python {machine['python']}, numpy "
          f"{machine['numpy']}, sgemm peak {machine['sgemm_peak_gflops']:.1f} GFLOP/s, "
          f"dgemm peak {machine['dgemm_peak_gflops']:.1f} GFLOP/s")
    print(f"workload {workload.name} seed {args.seed}: {len(commands)} command(s) of "
          f"{workload.items_per_command} {workload.item}s, command wall "
          f"{', '.join(f'{w:.3f}' for w in walls)} s")
    for op in failed:
        for problem in problems[op]:
            print(f"  FAILED {op}: {problem}")
    print(f"  failed_ratio {len(failed) / attempted:.4f} ({len(failed)} of {attempted} "
          f"operations)")

    if not args.trace:
        values = {
            "items_per_s": per_s,
            "setup_s": statistics.median(result["setups"]),
            "peak_rss_mb": result["measured"]["peak_rss_mb"],
        }
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        for name, m in metrics.items():
            print(f"  {name:<14} {m['value']:.4f} {m['unit']}")
        print(f"  ({workload.rate_name} = items_per_s: {workload.item}s per second of "
              f"command wall time, median over commands; setup_s is the median of "
              f"{len(result['setups'])} fresh interpreters)")
        if result["quality"] is not None:
            print(f"  loss_ratio     {result['quality']:.4f} (final over first loss, "
                  f"first command; must be <= {checks.LOSS_RATIO_LIMIT})")
    else:
        spans = result["spans"]["spans"]
        values = tracing.summarize(spans, machine[workload.peak_key()])
        traced_wall = result["traced"]["commands"][0]["wall_s"]
        values["trace.overhead_ratio"] = traced_wall / statistics.median(walls)
        values["loss.loss_ratio"] = result["quality"] or 0.0
        missing, not_run = tracing.missing_spans(spans, result["spans"]["unpatched"],
                                                 workload.expected_spans)
        metrics = {}
        for name, unit, _better in tracing.PER_LAYER:
            metrics[name] = _metric(values[name], unit)
            print(f"  {name:<36} {values[name]:.6g} {unit}")
        top = ", ".join(f"{name} {seconds:.3f} s ({seconds / traced_wall:.0%})"
                        for name, seconds in tracing.largest_self_times(spans, 3))
        print(f"  largest self times of the traced command: {top}")
        print(f"  missing (expected here, no calls recorded): {', '.join(missing) or 'none'}")
        print(f"  not exercised by this workload (reported as 0): {', '.join(not_run)}")
        print(f"  spans: {len(spans)} written to {result['spans_file']}")
    return {"correct": not failed, "attempted": attempted, "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite the committed reference output from this run "
                             f"(seed {REFERENCE_SEED} only)")
    args = parser.parse_args(argv)
    if args.write_reference and (args.seed != REFERENCE_SEED
                                 or not WORKLOADS[args.workload].has_reference):
        parser.error(f"--write-reference needs --seed {REFERENCE_SEED} and a workload "
                     "with a reference output")
    if not os.path.isfile(os.path.join(SRC, "yolokit", "cli.py")):
        print(f"error: no yolokit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        result = run(args)
        payload = report(args, result)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
