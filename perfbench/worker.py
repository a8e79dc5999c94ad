"""Child process of the benchmark; each mode runs in a fresh interpreter.

    worker.py machine OUT             machine record and GEMM peaks
    worker.py setup OUT [--model M --classes C --weights W --precision P]
    worker.py run OUT SPEC [--trace SPANS]

Top-level imports are stdlib only, so ``setup`` times the whole import of
yolokit (numpy included) in an interpreter that has loaded neither.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback


def _write(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def gemm_peak_gflops(dtype, n: int = 1536, reps: int = 6) -> float:
    """Best-of-``reps`` n x n x n matrix product rate."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n)).astype(dtype)
    b = rng.standard_normal((n, n)).astype(dtype)
    out = np.empty((n, n), dtype=dtype)
    np.matmul(a, b, out=out)
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        np.matmul(a, b, out=out)
        best = min(best, time.perf_counter() - start)
    return 2.0 * n**3 / best / 1e9


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cmd_machine(args) -> None:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    _write(args.out, {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sgemm_peak_gflops": gemm_peak_gflops(np.float32),
        "dgemm_peak_gflops": gemm_peak_gflops(np.float64),
    })


def cmd_setup(args) -> None:
    start = time.perf_counter()
    import yolokit.cli  # noqa: F401  (the user entry point imports every module)

    if args.model:
        import numpy as np
        from yolokit.cfg import builtin_graph
        from yolokit.weights import load_weights_file

        graph = builtin_graph(args.model, args.classes)
        dtype = np.float64 if args.precision == "double" else np.float32
        load_weights_file(graph, args.weights, dtype=dtype)
    _write(args.out, {"setup_s": time.perf_counter() - start})


def _run_command(argv: list[str]) -> tuple[float, int]:
    from yolokit.cli import main

    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(argv)
    except Exception:  # a crash fails this command's operations; keep measuring
        traceback.print_exc()
        code = -1
    return time.perf_counter() - start, code


def cmd_run(args) -> None:
    """Run the spec's command until its time is spent (or once, traced).

    A further command starts only while the run is expected to end within
    ``seconds``, judged by the median command so far; at least one runs.
    Peak RSS is read after the first command: one command's footprint.
    """
    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    import yolokit.cli  # noqa: F401  (import cost belongs to setup_s)
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    commands = []
    start = time.perf_counter()
    while True:
        argv = [a.replace("{k}", str(len(commands))) for a in spec["argv"]]
        if tracer is not None:
            with tracer:
                wall, code = _run_command(argv)
        else:
            wall, code = _run_command(argv)
        commands.append({"argv": argv, "wall_s": wall, "exit_code": code})
        if len(commands) == 1:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        walls = sorted(c["wall_s"] for c in commands)
        if (tracer is not None or len(commands) >= spec["max_commands"]
                or time.perf_counter() - start + walls[len(walls) // 2] > spec["seconds"]):
            break
    if tracer is not None:
        _write(args.trace, {"spans": tracer.to_json(), "unpatched": tracer.unpatched})
    _write(args.out, {"commands": commands, "peak_rss_mb": peak_mb})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    machine = sub.add_parser("machine")
    machine.add_argument("out")
    setup = sub.add_parser("setup")
    setup.add_argument("out")
    setup.add_argument("--model")
    setup.add_argument("--classes", type=int)
    setup.add_argument("--weights")
    setup.add_argument("--precision")
    run = sub.add_parser("run")
    run.add_argument("out")
    run.add_argument("spec")
    run.add_argument("--trace")
    args = parser.parse_args(argv)
    {"machine": cmd_machine, "setup": cmd_setup, "run": cmd_run}[args.mode](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
