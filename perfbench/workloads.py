"""The benchmark's workloads: inputs made from a seed, one op, and its checks.

Every workload has the same shape.  ``setup()`` does the work a user pays
once; ``prepare(index)`` makes the input of op ``index`` (outside the
timed region); ``op(input)`` is the timed call into jointgrid; ``check``
returns one line per problem found in the op's outputs, naming the
scenario or artifact; ``cleanup`` deletes what the op wrote.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import shutil
from pathlib import Path

from jointgrid import cascade, cli, network as network_mod, synthesis
from jointgrid import grid as grid_mod
from jointgrid.cascade import FailureScenario
from jointgrid.idr import IIM, MIIM

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "jointgrid" / "fixtures"
REFERENCE_PATH = Path(__file__).resolve().with_name("reference.json")

# Estimation numbers may move by rounding-level amounts (a refactored solver
# changes states by ~1e-12); everything else must match byte for byte.
ERROR_TOLERANCE = 1e-8
NUMERIC_ARTIFACTS = ("errors.csv", "report.json")
GRID_PLACEHOLDER = b'"<grid>"'

RUN_SCENARIOS = {
    "run118": ("ieee118_substation_damage", "ieee118_gateway_sadm_failure"),
    "run14": ("ieee14_substation6_attack",),
}
# The clock gauge matching each run workload's dominant work (see clock.py):
# 118-bus estimation is SVD-bound, the 14-bus run interpreter-bound.
RUN_GAUGES = {"run118": "lapack", "run14": "python"}
NAMES = ("run118", "sweep118", "run14")


def make(name: str, seed: int, work_dir: Path):
    if name == "sweep118":
        return SweepWorkload(seed)
    reference = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    return RunWorkload(name, RUN_SCENARIOS[name], seed, work_dir, reference)


# --- run118 / run14 ----------------------------------------------------------


def seeded_scenario(shipped: dict, seed: int, work_dir: Path) -> dict:
    """A copy of a shipped scenario for ``work_dir``: same grid and kill set,
    Monte-Carlo seeds shifted by ``seed`` whole blocks (seed 0 = shipped)."""
    generated = dict(shipped)
    generated["grid"] = os.path.relpath(FIXTURES / shipped["grid"], work_dir)
    estimation = dict(shipped["estimation"])
    estimation["seed_base"] = estimation.get("seed_base", 0) + seed * estimation["seeds"]
    generated["estimation"] = estimation
    return generated


def artifact_digest(path: Path, grid_path: Path) -> str:
    """SHA-256 of an artifact, with the absolute grid path that masks embed
    replaced by a placeholder so that digests do not depend on the checkout."""
    data = path.read_bytes().replace(json.dumps(str(grid_path)).encode(), GRID_PLACEHOLDER)
    return hashlib.sha256(data).hexdigest()


def stripped_report(report: dict) -> dict:
    """report.json without its grid path and its floating-point mean errors."""
    stripped = json.loads(json.dumps(report))
    stripped.pop("grid", None)
    stripped.get("estimation", {}).pop("mean_abs_error", None)
    return stripped


def read_errors(path: Path):
    """errors.csv as (keys, values): keys are [bus, model, flagged] rows,
    values the matching [mean_abs_err, std_err] rows."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if rows[0] != ["bus", "model", "mean_abs_err", "std_err", "flagged_unobservable"]:
        raise ValueError(f"unexpected header {rows[0]}")
    keys = [[int(r[0]), r[1], int(r[4])] for r in rows[1:]]
    values = [[float(r[2]), float(r[3])] for r in rows[1:]]
    return keys, values


class RunWorkload:
    """One op is an in-process ``jointgrid run`` on each scenario, each into
    a fresh out-dir.  The program sees only the generated scenario copies."""

    def __init__(self, name, scenario_stems, seed, work_dir, reference):
        self.name = name
        self.scenario_stems = scenario_stems
        self.seed = seed
        self.work_dir = work_dir
        self.reference = reference
        self.gauge = RUN_GAUGES[name]
        self.scenarios = []  # (stem, generated path, resolved grid path)

    def setup(self):
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.scenarios = []
        for stem in self.scenario_stems:
            shipped = json.loads((FIXTURES / f"{stem}.json").read_text(encoding="utf-8"))
            path = self.work_dir / f"{stem}.json"
            generated = seeded_scenario(shipped, self.seed, self.work_dir)
            path.write_text(json.dumps(generated, indent=2, sort_keys=True), encoding="utf-8")
            self.scenarios.append((stem, path, (FIXTURES / shipped["grid"]).resolve()))

    def prepare(self, index: int) -> Path:
        return self.work_dir / f"op{index}"

    def op(self, out_root: Path) -> dict:
        """Exit code and stderr of ``jointgrid run`` per scenario stem."""
        outcomes = {}
        for stem, path, _ in self.scenarios:
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = cli.main(["run", "--scenario", str(path), "--out-dir", str(out_root / stem)])
            outcomes[stem] = (code, stderr.getvalue().strip())
        return outcomes

    def check(self, out_root: Path, outcomes: dict) -> list:
        problems = []
        for stem, _, grid_path in self.scenarios:
            where = f"{self.name}/{stem}"
            code, stderr = outcomes[stem]
            if code != 0:
                problems.append(f"{where}: exit code {code}: {stderr}")
                continue
            reference = self.reference[self.name][stem]
            problems += check_run_output(out_root / stem, grid_path, reference, self.seed, where)
        return problems

    def artifacts(self, out_root: Path):
        files = [p for p in out_root.rglob("*") if p.is_file()]
        return len(files), sum(p.stat().st_size for p in files)

    def cleanup(self, out_root: Path):
        shutil.rmtree(out_root, ignore_errors=True)

    def info(self) -> dict:
        return {"seed_base": {stem: json.loads(path.read_text())["estimation"]["seed_base"]
                              for stem, path, _ in self.scenarios}}


def check_run_output(out: Path, grid_path: Path, reference: dict, seed: int, where: str) -> list:
    """Compare one scenario's out-dir with its recorded reference."""
    problems = []
    names = sorted(p.name for p in out.iterdir())
    expected = sorted([*reference["digests"], *NUMERIC_ARTIFACTS])
    if names != expected:
        problems.append(f"{where}: artifact set {names} differs from {expected}")
    for name, digest in sorted(reference["digests"].items()):
        if (out / name).is_file() and artifact_digest(out / name, grid_path) != digest:
            problems.append(f"{where}: {name} differs from the reference digest")
    if not all((out / name).is_file() for name in NUMERIC_ARTIFACTS):
        return problems

    try:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        keys, values = read_errors(out / "errors.csv")
    except (ValueError, IndexError, KeyError) as exc:
        return problems + [f"{where}: errors.csv or report.json unreadable: {exc}"]
    if stripped_report(report) != reference["report"]:
        problems.append(f"{where}: report.json differs from the reference outside mean_abs_error")
    if keys != reference["error_keys"]:
        problems.append(f"{where}: errors.csv rows or unobservable flags differ from the reference")
    means = report.get("estimation", {}).get("mean_abs_error", {})
    numbers = [x for row in values for x in row] + list(means.values())
    if not all(isinstance(x, float) and math.isfinite(x) and x >= 0 for x in numbers):
        problems.append(f"{where}: errors.csv or report.json holds a negative or non-finite error")
        return problems

    # Property for any seed: report means are the means of the CSV's per-bus means.
    for model, mean in sorted(means.items()):
        per_bus = [v[0] for k, v in zip(keys, values) if k[1] == model]
        if not per_bus or abs(sum(per_bus) / len(per_bus) - mean) > ERROR_TOLERANCE:
            problems.append(f"{where}: report.json mean_abs_error[{model}] disagrees with errors.csv")

    recorded = reference["errors"].get(str(seed))
    if recorded is not None:
        if set(means) != set(recorded["mean_abs_error"]) or any(
            abs(means[m] - recorded["mean_abs_error"][m]) > ERROR_TOLERANCE for m in means
        ):
            problems.append(f"{where}: report.json mean_abs_error differs from the reference")
        if len(values) != len(recorded["values"]) or any(
            abs(a - b) > ERROR_TOLERANCE
            for row, ref_row in zip(values, recorded["values"])
            for a, b in zip(row, ref_row)
        ):
            problems.append(f"{where}: errors.csv differs from the reference by more than 1e-8")
    return problems


# --- sweep118 --------------------------------------------------------------------


class SweepWorkload:
    """One op screens a batch of random 1-5 entity kill sets.  Each is
    cascaded under all four (model, case) rule sets, then its masks and
    the MIIM-vs-IIM diffs are extracted.

    A batch, not a single kill set, because single-set latency is bimodal:
    about a third of the sets change nothing beyond the attacked entities
    and run 20% faster than the rest, so the median of single sets jumps
    between the two modes from one seed to the next."""

    name = "sweep118"
    gauge = "python"
    batch = 8

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.network = None
        self.entities = []
        self.loss_comparisons = 0
        self.strict_supersets = 0

    def setup(self):
        grid = grid_mod.load_grid(FIXTURES / "ieee118.json")
        network = synthesis.build_joint_network(grid)
        problems = network_mod.validate(network)
        if problems:
            raise RuntimeError(f"sweep118: ieee118 network is invalid: {problems[:3]}")
        for key in sorted(network.rule_sets):  # compiles each rule set once
            cascade.run_cascade(network, network.rule_sets[key], FailureScenario.of([]))
        self.network = network
        self.entities = network.entity_ids()

    def prepare(self, index: int) -> list:
        return [
            FailureScenario.of(self.rng.sample(self.entities, self.rng.randint(1, 5)))
            for _ in range(self.batch)
        ]

    def op(self, scenarios: list) -> list:
        return [self.screen(scenario) for scenario in scenarios]

    def screen(self, scenario: FailureScenario) -> dict:
        network = self.network
        traces, masks, diffs = {}, {}, {}
        for case in network_mod.CASES:
            for model in (MIIM, IIM):
                rule_set = network.rule_set(model, case)
                trace = cascade.run_cascade(network, rule_set, scenario)
                traces[model, case] = trace
                masks[model, case] = cascade.data_availability(trace.final_state(), network, rule_set)
            diffs[case] = cascade.footprint_diff(masks[MIIM, case], masks[IIM, case])
        return {"traces": traces, "masks": masks, "diffs": diffs}

    def check(self, scenarios: list, results: list) -> list:
        return [p for scenario, result in zip(scenarios, results) for p in self.check_one(scenario, result)]

    def check_one(self, scenario: FailureScenario, result: dict) -> list:
        where = f"sweep118 kill set {sorted(str(e) for e in scenario.killed)}"
        problems = []
        for (model, case), trace in sorted(result["traces"].items()):
            rule_set = self.network.rule_set(model, case)
            if not cascade.verify_fixpoint(self.network, rule_set, trace):
                problems.append(f"{where}: {model} case {case} trace is not a fixpoint")
            final = trace.final_state()
            if any(final[e] != 0 for e in scenario.killed):
                problems.append(f"{where}: {model} case {case} lets an attacked entity recover")
        for case, diff in sorted(result["diffs"].items()):
            miim, iim = result["masks"][MIIM, case], result["masks"][IIM, case]
            for kind, lost_miim, lost_iim in (
                ("SCADA", miim.scada_lost(), iim.scada_lost()),
                ("PMU", miim.pmu_lost(), iim.pmu_lost()),
            ):
                self.loss_comparisons += 1
                if not lost_miim <= lost_iim:
                    problems.append(f"{where}: case {case} MIIM {kind} loss is not a subset of IIM loss")
                elif lost_miim < lost_iim:
                    self.strict_supersets += 1
            if diff.scada_only_a or diff.pmu_only_a:
                problems.append(f"{where}: case {case} footprint_diff has MIIM-only losses")
        return problems

    def artifacts(self, scenarios):
        return 0, 0

    def cleanup(self, scenarios):
        pass

    def info(self) -> dict:
        return {"loss_comparisons": self.loss_comparisons,
                "iim_loss_strict_supersets": self.strict_supersets}
