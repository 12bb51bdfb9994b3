"""Record perfbench/reference.json from the program in this checkout.

    python3 perfbench/record_reference.py [--seeds 11]

For each scenario of run118 and run14 the reference holds the SHA-256 of
every byte-exact artifact, report.json without its floating-point means,
the (bus, model, flagged) rows of errors.csv, and, for benchmark seeds
0 .. seeds-1, the errors.csv values and report means.  Record it only from
a commit whose outputs are known good; the benchmark then holds every
later commit to it.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run

run.prepare_process()

import workloads  # noqa: E402  (needs the thread pinning and path above)


def record_seed(name: str, seed: int, reference: dict):
    with tempfile.TemporaryDirectory(dir=workloads.ROOT) as tmp:
        workload = workloads.RunWorkload(name, workloads.RUN_SCENARIOS[name], seed, Path(tmp), {})
        workload.setup()
        out_root = workload.prepare(0)
        outcomes = workload.op(out_root)
        for stem, _, grid_path in workload.scenarios:
            code, stderr = outcomes[stem]
            if code != 0:
                sys.exit(f"{name}/{stem} seed {seed}: exit code {code}: {stderr}")
            out = out_root / stem
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            keys, values = workloads.read_errors(out / "errors.csv")
            entry = {
                "digests": {
                    p.name: workloads.artifact_digest(p, grid_path)
                    for p in sorted(out.iterdir())
                    if p.name not in workloads.NUMERIC_ARTIFACTS
                },
                "report": workloads.stripped_report(report),
                "error_keys": keys,
            }
            scenario = reference.setdefault(stem, {**entry, "errors": {}})
            if any(scenario[k] != v for k, v in entry.items()):
                sys.exit(f"{name}/{stem}: seed {seed} changed a seed-independent artifact")
            scenario["errors"][str(seed)] = {
                "mean_abs_error": report["estimation"]["mean_abs_error"],
                "values": values,
            }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=11)
    args = parser.parse_args()
    reference = {}
    for name in workloads.RUN_SCENARIOS:
        reference[name] = {}
        for seed in range(args.seeds):
            record_seed(name, seed, reference[name])
            print(f"recorded {name} seed {seed}", flush=True)
    workloads.REFERENCE_PATH.write_text(
        json.dumps(reference, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    main()
