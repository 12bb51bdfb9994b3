"""Time the N-1 failure family of a bundled grid, in-process.

    python tools/n1_family.py GRID

GRID names a bundled grid (`ieee14` or `ieee118`).  The tool builds the
joint network once.  It then runs the family five times over: every
single-entity kill set is cascaded under both models in both channel
cases, each cascade's availability mask is taken, and each (kill set,
case) gets the `footprint_diff` of its MIIM and IIM masks.  A kill set's
two cases run next to each other, so they share one cascade per model.
The first round also compiles the rules.  Each round counts as it goes
and keeps only the distinct losses, as a screen would.  The tool prints
the best wall time of the five, then, from the last round:

- superset violations: (kill set, case) pairs whose MIIM mask loses a bus
  that the IIM mask keeps (the paper's claim is that there are none);
- strict IIM supersets: (kill set, case) pairs whose IIM mask loses more;
- distinct (SCADA, PMU) loss pairs among all the masks, and their number
  counted per case (the masks a per-case screen would estimate).

The exit code is 1 if there is a violation, and 0 otherwise.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from jointgrid.cascade import FailureScenario, data_availability, footprint_diff, run_cascade  # noqa: E402
from jointgrid.grid import load_grid  # noqa: E402
from jointgrid.idr import IIM, MIIM  # noqa: E402
from jointgrid.network import CASES  # noqa: E402
from jointgrid.synthesis import build_joint_network  # noqa: E402

GRIDS = ("ieee14", "ieee118")
ROUNDS = 5


def family(network) -> tuple:
    """The family's superset violations, strict IIM supersets and distinct
    (case, SCADA lost, PMU lost) triples."""
    rule_sets = {case: (network.rule_set(MIIM, case), network.rule_set(IIM, case)) for case in CASES}
    violations, strict, losses = 0, 0, set()
    for entity in network.entity_order:
        scenario = FailureScenario.of([entity])
        for case, pair in rule_sets.items():
            masks = [data_availability(run_cascade(network, rs, scenario), network, rs) for rs in pair]
            diff = footprint_diff(*masks)
            violations += bool(diff.scada_only_a or diff.pmu_only_a)
            strict += bool(diff.scada_only_b or diff.pmu_only_b)
            losses.update((case, mask.lost_scada, mask.lost_pmu) for mask in masks)
    return violations, strict, losses


def main(argv: list) -> int:
    if len(argv) != 1 or argv[0] not in GRIDS:
        raise SystemExit(f"usage: python tools/n1_family.py {{{','.join(GRIDS)}}}")
    network = build_joint_network(load_grid(ROOT / "src" / "jointgrid" / "fixtures" / f"{argv[0]}.json"))
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        violations, strict, losses = family(network)
        best = min(best, time.perf_counter() - start)
    print(f"{argv[0]} N-1 family: {len(network.entity_order)} kill sets, cases {list(CASES)}, both models")
    print(f"best of {ROUNDS}: {best:.3f} s")
    print(f"superset violations: {violations}")
    print(f"strict IIM supersets: {strict}")
    distinct = len({loss[1:] for loss in losses})
    print(f"distinct (SCADA, PMU) loss pairs: {distinct} ({len(losses)} counted per case)")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
