"""Smoke tests for the benchmark itself.

    python3 -m pytest perfbench -q

Runs one op per workload through the real entry point and checks that every
metric is reported, then corrupts artifacts in-process and checks that the
failure is counted and named.  The run118 case takes about a minute and a
half, because one op runs 400 Monte-Carlo solves and the traced run makes
two ops.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.prepare_process()

import harness  # noqa: E402  (needs the thread pinning and path above)
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

END_TO_END = {"setup_s", "op_p50_s", "op_tail_s", "ops_per_s", "peak_rss_mb", "fail_ratio"}
PER_LAYER = {
    "grid.load_s",
    "synthesis.build_s", "synthesis.entities", "synthesis.rules",
    "network.validate_s", "network.entity_ids_s", "network.entity_ids_calls",
    "idr.evaluate_s", "idr.evaluate_calls",
    "cascade.run_s", "cascade.run_calls", "cascade.cold_run_s", "cascade.steps",
    "cascade.entities_changed", "cascade.availability_s", "cascade.footprint_s",
    "estimation.compare_s", "estimation.simulate_s", "estimation.simulate_calls",
    "estimation.measurements", "estimation.build_system_s", "estimation.solve_s",
    "estimation.wls_s", "estimation.wls_calls", "estimation.wls_calls_per_solve",
    "estimation.write_csv_s",
    "cli.main_s", "cli.network_payload_s", "cli.rule_file_text_s",
    "cli.rule_file_text_calls", "cli.artifact_bytes", "cli.artifact_files",
    "trace.overhead_s",
}


def bench(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert PER_LAYER <= {m["name"] for m in BENCHMARK["per_layer"]}


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_one_op_reports_every_metric(workload):
    plain = bench(workload, 0)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] == 1
    assert set(plain["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert plain["metrics"]["fail_ratio"]["value"] == 1.0
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = bench(workload, 1)
    assert traced["correct"] and traced["attempted"] == 2
    assert set(traced["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}


def _append_space(path: Path):
    path.write_bytes(path.read_bytes() + b" ")


def _shift_first_error(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[2] = f"{float(cells[2]) + 1e-6:.9f}"
    lines[1] = ",".join(cells)
    path.write_text("".join(lines), encoding="utf-8")


@pytest.mark.parametrize(
    "artifact, corrupt, message",
    [
        ("footprint_diff.json", _append_space, "footprint_diff.json differs"),
        ("availability_iim_case1.json", _append_space, "availability_iim_case1.json differs"),
        ("rules_miim_case2.idr", _append_space, "rules_miim_case2.idr differs"),
        ("errors.csv", _shift_first_error, "errors.csv differs"),
    ],
)
def test_corrupted_artifact_raises_fail_ratio(tmp_path, monkeypatch, capsys, artifact, corrupt, message):
    op = workloads.RunWorkload.op

    def corrupting_op(self, out_root):
        outcomes = op(self, out_root)
        corrupt(out_root / "ieee14_substation6_attack" / artifact)
        return outcomes

    monkeypatch.setattr(workloads.RunWorkload, "op", corrupting_op)
    args = harness.parse_args(["--workload", "run14", "--seed", "0", "--seconds", "0"])
    result, _ = harness.run(args, tmp_path)
    assert not result["correct"] and result["failed"] == 1
    assert result["metrics"]["fail_ratio"]["value"] == 2.0
    assert f"run14/ieee14_substation6_attack: {message}" in capsys.readouterr().err


def test_sweep_check_names_a_broken_subset_claim(monkeypatch, capsys):
    workload = workloads.SweepWorkload(seed=0)
    workload.setup()
    scenarios = workload.prepare(0)
    results = workload.op(scenarios)
    assert len(results) == workload.batch
    assert workload.check(scenarios, results) == []
    # Claim every bus lost under MIIM: the subset property must now fail.
    miim = results[0]["masks"][workloads.MIIM, 1]
    miim.scada = {bus: False for bus in miim.scada}
    problems = workload.check(scenarios, results)
    assert any("case 1 MIIM SCADA loss is not a subset of IIM loss" in p for p in problems)
