"""Measurement loop and result line for one workload run.

A set-up starts a fresh interpreter that imports numpy and jointgrid,
then runs the workload's own set-up; it runs ``SETUP_REPEATS`` times and
``setup_s`` is the median.  Ops then run back to back for ``--seconds`` of
wall time: at least one op, and no op that the mean time per op so far
says would end past the window.  Only the op call is timed; making its
input, checking its outputs and deleting them happen between timings.
End-to-end times are scaled to a fixed machine speed; see clock.py.

With ``--trace 1`` each input runs untraced and then traced, so the
per-layer metrics and the tracing overhead come from the same process and
the same inputs.
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
from contextlib import nullcontext, suppress
from importlib import metadata
from pathlib import Path
from time import perf_counter

import numpy

import jointgrid
import workloads
from clock import Clock
from tracer import Tracer, per_layer_metrics

SETUP_REPEATS = 5
TAIL_SAMPLES = 10  # op_tail_s is the highest percentile with this many samples beyond it


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0, help="non-negative input seed")
    parser.add_argument("--seconds", type=float, default=10.0, help="measured wall time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def tail(latencies):
    """(value, percentile, samples beyond) at the highest percentile that
    has TAIL_SAMPLES samples beyond it; the maximum when there are fewer."""
    ordered = sorted(latencies)
    index = len(ordered) - TAIL_SAMPLES - 1 if len(ordered) > TAIL_SAMPLES else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - 1 - index


def environment() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "threads": {var: value for var, value in os.environ.items() if var.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": blas,
    }


def measure(workload, seconds: float, clock: Clock, tracer):
    """Run the workload's ops until ``seconds`` have passed.  Returns the
    untraced ops' scaled and raw latencies, the traced ops' raw latencies,
    the failure count and the traced ops' artifact totals."""
    scaled, raw, traced_raw = [], [], []
    failed = artifact_files = artifact_bytes = 0
    start = perf_counter()
    index = 0
    while not raw or (tracer and not traced_raw) or (
        (perf_counter() - start) * (index + 1) / index <= seconds
    ):
        traced = tracer is not None and index % 2 == 1
        # A traced op repeats the untraced op before it, so that the pair
        # differs only by the tracing.
        op_input = op_input if traced else workload.prepare(index)
        # Traced ops are timed raw, without gauge samples inside their spans.
        with tracer if traced else clock.interval() as timing:
            began = perf_counter()
            try:
                result, problems = workload.op(op_input), []
            except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                result, problems = None, [f"{workload.name}: op raised {type(exc).__name__}: {exc}"]
            elapsed = perf_counter() - began
        if traced:
            traced_raw.append(elapsed)
            files, size = workload.artifacts(op_input)
            artifact_files += files
            artifact_bytes += size
        else:
            raw.append(timing.raw_s)
            scaled.append(timing.scaled_s)
        if not problems:
            problems = workload.check(op_input, result)
        workload.cleanup(op_input)
        if problems:
            failed += 1
            for problem in problems:
                print(f"FAIL op {index}: {problem}", file=sys.stderr)
        index += 1
    return scaled, raw, traced_raw, failed, artifact_files, artifact_bytes


def run(args, work_dir: Path):
    workload = workloads.make(args.workload, args.seed, work_dir)
    tracer = Tracer() if args.trace else None
    clock = Clock(workload.gauge)
    setups, setups_raw = [], []
    for _ in range(SETUP_REPEATS):
        # Traced runs set up under the tracer too, so rule sets compiled
        # here count as warm in the ops.
        with clock.interval() as timing, tracer if tracer else nullcontext():
            subprocess.run([sys.executable, "-c", "import numpy, jointgrid.cli"], check=True,
                           env={**os.environ, "PYTHONPATH": str(workloads.ROOT / "src")})
            workload.setup()
        setups_raw.append(timing.raw_s)
        setups.append(timing.scaled_s)
    if tracer:
        tracer.reset()

    latencies, raw, traced, failed, files, size = measure(workload, args.seconds, clock, tracer)
    attempted = len(latencies) + len(traced)
    tail_value, tail_pct, beyond = tail(latencies)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(latencies),
        "traced_ops": len(traced),
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": beyond,
        "raw_setup_s": setups_raw,
        "raw_op_p50_s": statistics.median(raw),
        "raw_op_tail_s": tail(raw)[0],
        "gauge": workload.gauge,
        "gauge_nominal_s": clock.nominal_s,
        "gauge_p50_s": statistics.median(clock.readings),
        "gauge_readings": len(clock.readings),
        **workload.info(),
        **environment(),
    }
    if tracer:
        # Per-layer times are raw wall times: their ratios need no scaling.
        overhead = statistics.median(t - u for t, u in zip(traced, raw))
        metrics = per_layer_metrics(tracer, len(traced), sum(traced), overhead, files, size)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "op_tail_s": {"value": tail_value, "unit": "s"},
            "ops_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            # Offset by one so the metric is never 0: 1.0 means no op failed.
            "fail_ratio": {"value": 1.0 + failed / attempted, "unit": "ratio"},
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, info


def main(argv) -> int:
    args = parse_args(argv)
    source = Path(jointgrid.__file__).resolve()
    if workloads.ROOT / "src" not in source.parents:
        print(f"error: jointgrid imported from {source}, not from this checkout's src/", file=sys.stderr)
        return 2
    work_root = workloads.ROOT / ".perfbench_work"
    work_dir = work_root / f"{args.workload}-{os.getpid()}"
    try:
        result, info = run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with suppress(OSError):
            work_root.rmdir()
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0
