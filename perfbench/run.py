"""Closed-loop benchmark of cavityconv: one client, one operation at a time.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; cavityconv is imported from its ``src``.
The workload's operations are made from the seed and repeated as passes
until the next pass would end after ``--seconds``; the first pass is a
warm-up whose times are not kept.  Every result is checked off the clock.
The last line on stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``:

  --trace 0  wall_s (one pass: the sum of each operation's median time
             over the passes), op_p50_s (median operation time),
             peak_rss_mb, setup_s (median over fresh interpreters of the
             time until the first operation is ready); every time is
             scaled to the reference host speed (hostspeed.py), and the
             raw values go to stderr
  --trace 1  the per-layer split from traced passes, which alternate with
             untraced ones; see README.md

Exits 2 without a result when the checkout holds no cavityconv sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checkout import CheckoutError, import_cavityconv
from hostspeed import HostSpeed, scale

DEFAULT_SEED = 1
SETUP_PROBES = 5
SETUP_KERNEL_SAMPLES = 5
SETUP_TIMEOUT_S = 60
OUT_DIR = Path(__file__).resolve().parent / "out"
BLAS_THREADS = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print 'ready', then the host-speed kernel's "
                             "time, and exit (set-up probe)")
    return parser.parse_args(argv)


def unit(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("bytes"):
        return "B"
    if metric.endswith("_dim"):
        return "dim"
    if metric.endswith("_share") or metric == "fail_frac":
        return "ratio"
    return "count"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def setup_seconds(args) -> tuple[list[float], list[float]]:
    """Fresh interpreter to 'inputs ready', timed from outside, per probe:
    raw, and scaled by the kernel time the probe measured after 'ready'."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples, scaled = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            kernel = proc.stdout.read()
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line.strip()!r})")
        scaled.append(scale(samples[-1], float(kernel)))
    return samples, scaled


def run_pass(ops, speed: HostSpeed) -> tuple[list[float], list[float], list[str]]:
    """Raw and scaled latency of each operation, and the failures.  The
    kernel is timed before the first operation and after each one; an
    operation is scaled by the mean of the samples on either side."""
    latencies, failures = [], []
    kernel = [speed.sample()]
    for op in ops:
        start = time.perf_counter()
        try:
            out, reason = op.run(), None
        except Exception as exc:  # a failed operation is counted; the loop goes on
            out, reason = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - start)
        kernel.append(speed.sample())
        if reason is None:
            try:
                reason = op.check(out)
            except Exception as exc:  # a malformed result fails its check
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            failures.append(f"{op.label}: {reason}")
    scaled = [scale(lat, 0.5 * (kernel[k] + kernel[k + 1])) for k, lat in enumerate(latencies)]
    return latencies, scaled, failures


def pass_time(passes: list[list[float]]) -> float:
    """One pass with every operation at its median latency: robust to a
    stall in a single pass, which a median of few pass totals is not."""
    return sum(statistics.median(op_times) for op_times in zip(*passes))


def measure(args, cavityconv, ops, speed: HostSpeed) -> dict:
    import numpy
    import tracing

    tracer = tracing.Tracer(cavityconv) if args.trace else None
    passes = {False: [], True: []}  # per-operation scaled latencies of each pass
    raw = []  # per-operation raw latencies of each untraced pass
    layers = []
    start = time.perf_counter()
    # the first pass warms lazy imports, allocator pools and caches; it is
    # checked and counted as attempted, but its latencies are not kept
    numpy.random.seed(args.seed)
    _, _, failures = run_pass(ops, speed)
    while True:
        traced = tracer is not None and len(passes[False]) > len(passes[True])
        # scipy's one-norm estimator (inside expm_multiply) draws from NumPy's
        # global generator; seeding it makes every pass, and its counts, repeat
        numpy.random.seed(args.seed)
        if traced:
            tracer.spans.clear()
            tracer.install()
        try:
            lat_raw, lat, fails = run_pass(ops, speed)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            layers.append(tracing.layer_metrics(tracer.spans))
        passes[traced].append(lat)
        if not traced:
            raw.append(lat_raw)
        failures += fails
        done_kinds = passes[True] or tracer is None
        if done_kinds and time.perf_counter() - start + sum(lat_raw) > args.seconds:
            break
    attempted = len(ops) * (1 + len(passes[False]) + len(passes[True]))
    for reason in failures[:20]:
        print(f"failed: {reason}", file=sys.stderr)

    if tracer is None:
        print(json.dumps({"raw_wall_s": pass_time(raw),
                          "raw_op_p50_s": statistics.median(t for lat in raw for t in lat)}),
              file=sys.stderr)
        metrics = {
            "wall_s": pass_time(passes[False]),
            "op_p50_s": statistics.median(t for lat in passes[False] for t in lat),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
        metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        untraced = pass_time(passes[False])
        metrics["trace.overhead_share"] = (pass_time(passes[True]) - untraced) / untraced
        metrics["fail_frac"] = len(failures) / attempted
    return {"attempted": attempted, "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    # one client, one thread: with two BLAS threads on a shared 2-CPU host the
    # dense kernels wait on whichever core a neighbour holds, and repeat times
    # of one operation spread several times wider
    os.environ.update(BLAS_THREADS)
    try:
        cavityconv = import_cavityconv()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        if args.setup_only:
            print("ready", flush=True)
            speed = HostSpeed()
            print(statistics.median(speed.sample() for _ in range(SETUP_KERNEL_SAMPLES)))
            return 0
        print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed,
                          "operations": [op.label for op in ops]}), file=sys.stderr)
        setup = None if args.trace else setup_seconds(args)
        result = measure(args, cavityconv, ops, HostSpeed())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if setup is not None:
        raw_setup, scaled_setup = setup
        print(json.dumps({"raw_setup_s": statistics.median(raw_setup)}), file=sys.stderr)
        result["metrics"]["setup_s"] = statistics.median(scaled_setup)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
