"""Benchmark for modecast: one workload per run, outputs checked.

    python3 bench/run.py --workload {ensemble,sweep,analyze} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from ./src. With
--trace 0 the last line of standard output is a JSON object with the
end-to-end metrics (setup_s, op_s, cpu_s, peak_rss_mb, nrmse); with
--trace 1 it holds the per-layer metrics, and the spans are written to
bench/out/trace-<workload>-<seed>.json. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 5  # set-up is timed in this many fresh processes; the median is reported
WARMUP_OPS = 1  # the first operations of a run are checked but left out of the timings
TRACE_MIN_OPS = 3  # per half of a traced run

BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ensemble", "sweep", "analyze"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: time set-up alone in a fresh process and report it.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def locate_program() -> None:
    if not (SRC / "modecast" / "__init__.py").is_file():
        raise FileNotFoundError(f"{SRC / 'modecast'} not found; run from a modecast checkout")


def import_program() -> float:
    """Import modecast from ./src and return the seconds the import took."""
    locate_program()
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import modecast
    seconds = time.perf_counter() - start
    if Path(modecast.__file__).resolve().parent != SRC / "modecast":
        raise ImportError(f"modecast imported from {modecast.__file__}, not from {SRC}")
    # The growth-guard warning fires from member threads; printing each
    # one would put terminal output inside the timed section.
    warnings.simplefilter("ignore", modecast.InstabilityWarning)
    sys.path.insert(0, str(HERE))
    return seconds


def setup_only(args) -> int:
    import_s = import_program()
    import workloads

    start = time.perf_counter()
    workloads.WORKLOADS[args.workload]().setup(args.seed, Path(args.workdir))
    inputs_s = time.perf_counter() - start
    print(json.dumps({"ready": time.monotonic(), "import_s": import_s, "inputs_s": inputs_s}))
    return 0


def time_setup(args, workdir: Path) -> list[dict]:
    """Set up SETUP_SAMPLES times, each in a fresh interpreter, one at a time.
    setup_s runs from just before the process is started to inputs ready."""
    samples = []
    for i in range(SETUP_SAMPLES):
        scratch = workdir / f"setup-{i}"
        scratch.mkdir()
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "1", "--workdir", str(scratch)]
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        doc["setup_s"] = doc.pop("ready") - start
        samples.append(doc)
        shutil.rmtree(scratch)
    return samples


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS the process has loaded (read, never set)."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    counts = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in BLAS_THREAD_SYMBOLS:
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                counts[Path(path).name] = getter()
                break
    return counts


def environment(workers: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "workers": workers,
    }


def run_ops(workload, first: int, seconds: float, min_ops: int, tracer=None) -> list[dict]:
    """Closed loop: operation k+1 starts when operation k returns, until
    `seconds` have passed and at least `min_ops` operations ran."""
    ops = []
    start = time.perf_counter()
    k = first
    while len(ops) < min_ops or time.perf_counter() - start < seconds:
        if k > 0:
            workload.prepare(k)
        if tracer is not None:
            tracer.op, tracer.phase = k, "op"
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            out, error = workload.op(k), None
        except Exception:  # the program failed this operation: count it, keep going
            out, error = None, traceback.format_exc()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        ops.append({"k": k, "wall": wall, "cpu": cpu, "out": out, "error": error})
        k += 1
    if tracer is not None:
        tracer.phase = "idle"
    return ops


def check_ops(workload, ops: list[dict]) -> tuple[int, bool, list]:
    """Check every output. Returns (failed operations, all outputs correct,
    accuracy figures of the first ACCURACY_OPS operations).

    An operation that raises counts as failed. If it is one of the first
    ACCURACY_OPS, the run is not correct either: its accuracy figure would
    be missing from nrmse, and the guard must not improve because the
    operations that forecast worst stop returning."""
    import workloads

    failed, correct, figures = 0, True, []
    for op in ops:
        if op["error"] is not None:
            failed += 1
            print(f"operation {op['k']} failed:\n{op['error']}", file=sys.stderr)
            if op["k"] < workloads.ACCURACY_OPS:
                correct = False
            continue
        try:
            errors, figure = workload.check(op["k"], op["out"])
        except Exception:  # a malformed output can break the check itself
            errors, figure = [f"check raised:\n{traceback.format_exc()}"], None
        finally:
            workload.cleanup(op["k"], op["out"])
        if errors:
            failed += 1
            correct = False
            print(f"operation {op['k']} output check failed: " + "; ".join(errors), file=sys.stderr)
        elif op["k"] < workloads.ACCURACY_OPS:
            figures.append(figure)
    return failed, correct, figures


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        locate_program()
        if args.setup_only:
            return setup_only(args)
        workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            return measure(args, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (OSError, ImportError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def measure(args, workdir: Path) -> int:
    setups = time_setup(args, workdir)
    import_program()
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    tracer = tracing.Tracer() if args.trace else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        workload.setup(args.seed, workdir)
    if not args.trace:
        ops = run_ops(workload, 0, args.seconds, WARMUP_OPS + workloads.ACCURACY_OPS)
        traced = []
    else:
        ops = run_ops(workload, 0, args.seconds / 2, WARMUP_OPS + TRACE_MIN_OPS)
        with tracer.installed():
            traced = run_ops(workload, len(ops), args.seconds / 2, TRACE_MIN_OPS, tracer)
            serial_fit_s = serial_fit_seconds(workload, tracer, traced[0]["k"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env = environment(workload.workers)

    failed, correct, figures = check_ops(workload, ops + traced)
    timed = ops[WARMUP_OPS:]
    if not args.trace:
        if not figures:
            raise RuntimeError("no accuracy figure: the first operations all failed")
        metrics = {
            "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
            "op_s": (statistics.median(op["wall"] for op in timed), "s"),
            "cpu_s": (statistics.median(op["cpu"] for op in timed), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "nrmse": (workload.nrmse(figures), "1"),
        }
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    else:
        metrics = trace_report(args, workload, tracer, setups, timed, traced, serial_fit_s, env)

    print(json.dumps({"env": env}))
    print("operation walls (s): " + " ".join(f"{op['wall']:.3f}" for op in ops + traced))
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(ops) + len(traced),
                      "failed": failed, "metrics": metrics}))
    return 0


def serial_fit_seconds(workload, tracer, k: int) -> float | None:
    """Fit busy time of operation k run again without the pool (ensemble only)."""
    if workload.workers == 1:
        return None
    workers = workload.workers
    workload.workers, tracer.op, tracer.phase = 1, k, "serial"
    try:
        workload.op(k)
    finally:
        workload.workers, tracer.phase = workers, "idle"
    return sum(s["end"] - s["start"] for s in tracer.spans()
               if s["phase"] == "serial" and s["name"] == "dmd.fit")


def trace_report(args, workload, tracer, setups, ops, traced, serial_fit_s, env) -> dict:
    """Per-layer metrics; prints FLAG lines and writes the spans to bench/out."""
    import tracing

    spans = tracer.spans()
    metrics, flags = tracing.layer_metrics(
        args.workload, spans, [op["k"] for op in traced], workload.workers, serial_fit_s)
    untraced_op_s = statistics.median(op["wall"] for op in ops)
    metrics.update({
        "setup.import_s": {"value": statistics.median(s["import_s"] for s in setups), "unit": "s"},
        "setup.inputs_s": {"value": statistics.median(s["inputs_s"] for s in setups), "unit": "s"},
        "process.cpu_per_wall": {
            "value": statistics.median(op["cpu"] / op["wall"] for op in ops), "unit": "1"},
        "trace.overhead_s": {
            "value": statistics.median(op["wall"] for op in traced) - untraced_op_s, "unit": "s"},
    })
    for flag in flags:
        print(f"FLAG: {flag}", file=sys.stderr)
    trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
    origin = min((s["start"] for s in spans), default=0.0)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "env": env, "metrics": metrics,
                   "flags": flags, "spans": tracing.span_records(spans, origin)}, fh)
    print(f"spans written to {trace_path.relative_to(ROOT)}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
