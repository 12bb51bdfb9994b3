"""Compare two checkouts on benchmark workloads, in alternating pairs.

    python tools/perf_pairs.py PARENT_DIR CHANGE_DIR --workload W [--workload W2 ...] --pairs N [--seed S]
    python tools/perf_pairs.py PARENT_DIR CHANGE_DIR --workload all --pairs N [--seed S]

`--workload` may be repeated, and `all` names every workload of
`BENCHMARK.json`, in its order.  The workloads run one after another, and
each gets N pairs and a table of its own.  Each pair runs
`perfbench/run.py` once in each checkout, with the same input seed (S +
the pair's index) and the run length `run_seconds` of `BENCHMARK.json`;
the parent runs first in even pairs and the change first in odd ones.
The two checkouts must hold the same `BENCHMARK.json` and `perfbench/`.
Each table gives, per end-to-end metric of `BENCHMARK.json`, each side's
median and quartiles, the change's median relative to the parent's, and
in how many pairs the change read better (ties count for neither side).  A gain holds when the change is better in
at least nine pairs of ten and the medians differ by more than the
distance between the parent's quartiles.  The last column tells whether
the change's median is worse than the parent's by more than the metric's
`bound` in `BENCHMARK.json`, as a fraction of the parent's median.  Under
the table go each side's medians of the raw (unscaled) op time and of the
gauge that scales it, from each run's `{"info": ...}` line, so that a
scaled metric that moved with the gauge alone can be told from one that
moved with the work.  Runs whose outputs failed their checks are counted
under each table.  The exit code is 1 if, on any workload, a metric is
worse than its bound or a run failed its checks, and 0 otherwise.

Every run gets `PYTHONPYCACHEPREFIX` set to a fresh empty directory,
removed after the run, so no run reads bytecode that an earlier process
wrote: both sides compile every module they import, numpy's and the
standard library's included, and `setup_s` (which times a subprocess
importing numpy and jointgrid) reads about 0.6-0.8 s instead of 0.16-0.24 s.
Otherwise a checkout in which tests have left valid `.pyc` files imports
faster than a fresh one.  With `PYTHONDONTWRITEBYTECODE=1` set, importing
numpy and `jointgrid.cli` took 0.175 s (median of 10) in a copy holding
the package's `.pyc` files against 0.240 s in a fresh copy of the same
commit, on a 2-vCPU VM: a skew of 27%, beyond `setup_s`'s 25% bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

INFO_KEYS = ("raw_op_p50_s", "gauge_p50_s")


def benchmark_files(checkout: Path) -> dict:
    """The bytes of ``BENCHMARK.json`` and of each file in ``perfbench/``."""
    paths = [checkout / "BENCHMARK.json", *(p for p in (checkout / "perfbench").iterdir() if p.is_file())]
    return {path.relative_to(checkout): path.read_bytes() for path in paths}


def run_once(checkout: Path, command: list, workload: str, seed: int, seconds: float) -> tuple:
    """The result line of one benchmark run in ``checkout``, and the
    ``info`` object of the line before it."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    with tempfile.TemporaryDirectory(prefix="pycache-") as cache:
        env = {**os.environ, "PYTHONPYCACHEPREFIX": cache}
        done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    info, result = done.stdout.strip().splitlines()[-2:]
    return json.loads(result), json.loads(info)["info"]


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def worse_than_bound(metric: dict, parent_median: float, change_median: float) -> bool:
    """Whether the change's median is worse than the parent's by more than
    ``metric["bound"]`` times the parent's median."""
    sign = 1 if metric["better"] == "lower" else -1
    return sign * (change_median - parent_median) > metric["bound"] * abs(parent_median)


def report(metrics: list, parent_runs: list, change_runs: list) -> tuple:
    """One line per end-to-end metric, and the names of the metrics whose
    change median is worse than the parent's by more than their bound."""
    pairs = len(parent_runs)
    lines = [f"{'metric':<12} {'better':<7} {'parent median [q1, q3]':<38} {'change median [q1, q3]':<38} "
             f"{'change':>8} {'wins':>6}  gain  worse than bound"]
    worse = []
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        parent = [run["metrics"][name]["value"] for run in parent_runs]
        change = [run["metrics"][name]["value"] for run in change_runs]
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        p50, c50 = statistics.median(parent), statistics.median(change)
        (p1, p3), (c1, c3) = quartiles(parent), quartiles(change)
        gain = wins >= 0.9 * pairs and sign * (p50 - c50) > p3 - p1
        relative = f"{100 * (c50 - p50) / p50:+.1f}%" if p50 else "n/a"
        if worse_than_bound(metric, p50, c50):
            worse.append(name)
        lines.append(f"{name:<12} {metric['better']:<7} {f'{p50:.6g} [{p1:.6g}, {p3:.6g}]':<38} "
                     f"{f'{c50:.6g} [{c1:.6g}, {c3:.6g}]':<38} {relative:>8} {f'{wins}/{pairs}':>6}  "
                     f"{'yes' if gain else 'no':<4}  {'YES' if name in worse else 'no'} "
                     f"(bound {100 * metric['bound']:g}%)")
    return lines, worse


def compare(parent: Path, change: Path, benchmark: dict, workload: str, pairs: int, seed: int) -> bool:
    """Run ``pairs`` alternating pairs of ``workload`` and print its table;
    whether a metric is worse than its bound or a run failed its checks."""
    runs, infos = {parent: [], change: []}, {parent: [], change: []}
    for index in range(pairs):
        for checkout in (parent, change) if index % 2 == 0 else (change, parent):
            result, info = run_once(checkout, benchmark["command"], workload, seed + index, benchmark["run_seconds"])
            runs[checkout].append(result)
            infos[checkout].append(info)
            side = "parent" if checkout == parent else "change"
            p50 = result["metrics"]["op_p50_s"]["value"]
            print(f"{workload} pair {index + 1}/{pairs} seed {seed + index} {side}: op_p50_s {p50:.6g}",
                  file=sys.stderr)

    print(f"{workload}: {pairs} pairs of {benchmark['run_seconds']} s runs, seeds {seed}-{seed + pairs - 1}")
    lines, worse = report(benchmark["end_to_end"], runs[parent], runs[change])
    print("\n".join(lines))
    for key in INFO_KEYS:
        medians = [statistics.median(info[key] for info in infos[checkout]) for checkout in (parent, change)]
        print(f"{key} median (info): parent {medians[0]:.6g}, change {medians[1]:.6g}")
    failed = {side: sum(not run["correct"] for run in runs[checkout])
              for side, checkout in (("parent", parent), ("change", change))}
    print(f"runs with failed checks: parent {failed['parent']}, change {failed['change']}")
    if worse:
        print(f"worse than bound: {', '.join(worse)}")
    print(flush=True)
    return bool(worse or any(failed.values()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of BENCHMARK.json, or all; may be repeated")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0, help="input seed of each workload's first pair")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    if benchmark_files(parent) != benchmark_files(change):
        parser.error("the checkouts differ in BENCHMARK.json or perfbench/")
    benchmark = json.loads((parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in benchmark["workloads"]]
    workloads = [name for workload in args.workload for name in (names if workload == "all" else [workload])]
    unknown = [workload for workload in workloads if workload not in names]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    failed = [compare(parent, change, benchmark, workload, args.pairs, args.seed) for workload in workloads]
    return 1 if any(failed) else 0


if __name__ == "__main__":
    sys.exit(main())
