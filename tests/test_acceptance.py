"""Acceptance gate: every shipped claim at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import operator
import random
import time

import numpy as np
from scipy import special

from oracle import arrays, free_entities, mask_of, named_steps, rule_of
from wls_reference import admittance_from_branch, branch_current_rows, wls_solve
from jointgrid import entities as ent
from jointgrid.cascade import (
    FailureScenario,
    data_availability,
    footprint_diff,
    run_cascade,
    verify_fixpoint,
)
from jointgrid.cli import main
from jointgrid.entities import parse_entity_id
from jointgrid.estimation import (
    compare_models,
    default_true_state,
    measurement_template,
)
from jointgrid.idr import IIM, MIIM
from jointgrid.network import RuleSet
from jointgrid.synthesis import all_pairs_shortest, group_substations, substation_adjacency
from jointgrid.grid import Branch, Bus, Grid, SynthesisConfig
from jointgrid.ternary import max_or, min_and, new_xor

ATTACK = FailureScenario.of(
    [parse_entity_id(t) for t in ["P(12)", "C(1,1,6,6)", "C(1,2,6,6)"]],
    "substation-6 attack",
)


def report(criterion, text):
    print(f"\nACCEPTANCE {criterion}: PASS - {text}")


def test_criterion_1_truth_table_fidelity():
    table = {
        (2, 2): (2, 2, 2),
        (2, 1): (1, 2, 1),
        (2, 0): (0, 2, 1),
        (1, 2): (1, 2, 1),
        (1, 1): (1, 1, 1),
        (1, 0): (0, 1, 1),
        (0, 2): (0, 2, 1),
        (0, 1): (0, 1, 1),
        (0, 0): (0, 0, 0),
    }
    checks = 0
    for (a, b), (expect_and, expect_or, expect_xor) in table.items():
        assert min_and(a, b) == expect_and
        assert max_or(a, b) == expect_or
        assert new_xor([a, b]) == expect_xor
        checks += 3
    assert checks == 27
    report(1, "all 27 operator outputs match the printed truth table")


def test_criterion_2_ternary_trace_reproduction(ieee14):
    start = time.monotonic()
    traces = {}
    for case in (1, 2):
        trace = run_cascade(ieee14, ieee14.rule_set(MIIM, case), ATTACK)
        traces[case] = trace
        assert trace.converged_at == 3
        assert named_steps(trace, ieee14) == [
            {"P(12)": 0, "C(1,1,6,6)": 0, "C(1,2,6,6)": 0},
            {"C(1,4,1,6)": 0, "C(1,5,1,6)": 0},
            {"C(2,1,1,0)": 1, "C(3,1,1,0)": 1},
        ]
    assert arrays(traces[1]) == arrays(traces[2])
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(2, f"ternary cascade reproduces the reference trace in {elapsed:.3f}s, cases identical")


def test_criterion_3_binary_trace_and_masks(ieee14):
    start = time.monotonic()
    attacked_buses = {12}  # the attacked substation's own bus is dark throughout
    expected_lost = {1: {10, 11, 13, 14}, 2: {11, 14}}
    for case in (1, 2):
        rule_set = ieee14.rule_set(IIM, case)
        trace = run_cascade(ieee14, rule_set, ATTACK)
        assert trace.converged_at == 3
        final_changes = named_steps(trace, ieee14)[2]
        assert final_changes == {"C(2,1,1,0)": 0, "C(3,1,1,0)": 0}
        mask = data_availability(trace.final_state(), ieee14, rule_set)
        assert attacked_buses <= mask.scada_lost()
        assert mask.scada_lost() - attacked_buses == expected_lost[case]
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(3, f"binary cascade and its delivery losses match the reference in {elapsed:.3f}s")


def test_criterion_4_synthesis_placements(ieee14):
    assert ieee14.control_centers == (2, 1)
    assert ieee14.sadm_ring.hosts == [1, 2, 3, 4, 5, 10]
    assert ieee14.oadm_ring.hosts == [1, 2, 4, 7, 11]
    rule = rule_of(ieee14.rule_set(MIIM, 1), ent.sadm(1))
    data_feed_subs = sorted(e.indices[3] for e in free_entities(rule.body.children[1]))
    assert data_feed_subs == [2, 6, 7, 8, 9, 11]
    report(4, "control centers, ring placements, and first-node homing all match")


def _cascade_properties(network, label, runs, rng):
    entities = network.entity_ids()
    bound = 2 * len(entities)
    rule_set = network.rule_set(MIIM, 1)
    shuffled_rules = list(rule_set.rules)
    rng.shuffle(shuffled_rules)
    shuffled = RuleSet(rule_set.model, rule_set.case, shuffled_rules, rule_set.availability)
    for index in range(runs):
        killed = rng.sample(entities, rng.randint(1, 5))
        scenario = FailureScenario.of(killed)
        trace = run_cascade(network, rule_set, scenario)
        states = arrays(trace)
        for before, after in zip(states, states[1:]):
            assert all(map(operator.le, after, before)), f"{label}: value rose"
        assert trace.converged_at <= bound
        assert verify_fixpoint(network, rule_set, trace)
        other = run_cascade(network, shuffled, scenario)
        assert arrays(other) == states


def test_criterion_5_cascade_properties(ieee14, ieee118):
    start = time.monotonic()
    _cascade_properties(ieee14, "ieee14", 1000, random.Random(42))
    _cascade_properties(ieee118, "ieee118", 1000, random.Random(43))
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(5, f"2000 random kill sets: monotone, convergent, stable, order-independent in {elapsed:.1f}s")


def test_criterion_6_current_block_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        r = rng.uniform(0.001, 1.0)
        x = rng.uniform(0.01, 1.0) * rng.choice([-1.0, 1.0])
        b_sh = rng.uniform(0.0, 0.6)
        va = complex(rng.uniform(0.8, 1.2), rng.uniform(-0.3, 0.3))
        vb = complex(rng.uniform(0.8, 1.2), rng.uniform(-0.3, 0.3))
        adm = admittance_from_branch(r, x, b_sh)
        block = branch_current_rows(adm) @ np.array([va.real, va.imag, vb.real, vb.imag])
        oracle = complex(adm.g, adm.b) * (va - vb) + complex(adm.g0, adm.b0) * va
        worst = max(worst, abs(block[0] - oracle.real), abs(block[1] - oracle.imag))
    assert worst < 1e-12
    report(6, f"1000 random branches: coefficient block vs complex arithmetic, worst {worst:.2e}")


def test_criterion_7_wls_correctness(ieee14_grid):
    mask = mask_of(
        scada={b: True for b in ieee14_grid.bus_ids},
        pmu={b: b in {2, 13, 10} for b in ieee14_grid.bus_ids},
        pmu_equipped=frozenset({2, 13, 10}),
    )
    true_state = default_true_state(ieee14_grid)
    template = measurement_template(
        true_state, ieee14_grid, mask, scada_sigma=0.0, pmu_sigma=0.0
    )
    J, W, Z = template.J, template.variances, template.values
    state, _ = wls_solve(J, W, Z, ieee14_grid.bus_ids)
    zero_noise_worst = float(np.max(np.abs(state.values - true_state.values)))
    assert zero_noise_worst < 1e-9

    rng = np.random.default_rng(3)
    J2 = rng.normal(size=(6, 2))
    W2 = rng.uniform(0.5, 3.0, size=6)
    Z2 = rng.normal(size=6)
    estimated, _ = wls_solve(J2, W2, Z2, [1])
    w_inv = np.diag(1.0 / W2)
    oracle = np.linalg.solve(J2.T @ w_inv @ J2, J2.T @ w_inv @ Z2)
    oracle_gap = float(np.max(np.abs(estimated.values - oracle)))
    assert oracle_gap < 1e-10

    scaled, _ = wls_solve(J2, 123.0 * W2, Z2, [1])
    scale_gap = float(np.max(np.abs(estimated.values - scaled.values)))
    assert scale_gap < 1e-10
    report(
        7,
        f"zero-noise {zero_noise_worst:.1e}, normal-equation gap {oracle_gap:.1e}, "
        f"weight-scale gap {scale_gap:.1e}",
    )


def paired_greater_p(a, b):
    """One-sided p-value of the paired t-test that ``a`` exceeds ``b`` on
    average: the t statistic of the differences against Student's t with
    n - 1 degrees of freedom, its upper tail by ``stdtr``."""
    diff = np.asarray(a) - np.asarray(b)
    n = len(diff)
    t = diff.mean() / np.sqrt(diff.var(ddof=1) / n)
    return special.stdtr(n - 1, -t)


def test_criterion_8_model_comparison_claim(ieee118, ieee118_grid):
    start = time.monotonic()
    scenarios = {
        "gateway+ring-node failure": ["C(1,2,12,12)", "C(2,1,36,0)"],
        "substation damage": ["C(1,1,86,86)", "C(1,2,86,86)", "C(1,3,86,86)", "R(86)"],
    }
    true_state = default_true_state(ieee118_grid)
    seeds = range(100)
    tested_buses = 0
    for label, kill_texts in scenarios.items():
        killed = [parse_entity_id(t) for t in kill_texts]
        masks = {}
        for model in (MIIM, IIM):
            rule_set = ieee118.rule_set(model, 1)
            trace = run_cascade(ieee118, rule_set, FailureScenario.of(killed))
            masks[model] = data_availability(trace.final_state(), ieee118, rule_set)

        # Strict containment of the loss footprint.
        assert masks[MIIM].scada_lost() <= masks[IIM].scada_lost()
        assert masks[MIIM].pmu_lost() <= masks[IIM].pmu_lost()
        diff = footprint_diff(masks[MIIM], masks[IIM])
        extra = sorted(diff.scada_only_b | diff.pmu_only_b)
        assert extra, f"{label}: binary model must lose strictly more"
        assert not diff.scada_only_a and not diff.pmu_only_a

        result = compare_models(ieee118_grid, masks, true_state, seeds)
        for bus in extra:
            iim_err = result.errors[IIM][:, result.bus_ids.index(bus)]
            miim_err = result.errors[MIIM][:, result.bus_ids.index(bus)]
            p_value = paired_greater_p(iim_err, miim_err)
            assert p_value < 0.05, f"{label}: bus {bus} p={p_value}"
            tested_buses += 1

        # Neighbors of a bus that loses only its PMU under the binary model
        # keep their own telemetry yet still estimate worse: the precise
        # branch currents that pinned them are gone.
        for pmu_bus in sorted(diff.pmu_only_b):
            neighbors = {
                br.to_bus if br.from_bus == pmu_bus else br.from_bus
                for br in ieee118_grid.branches
                if pmu_bus in (br.from_bus, br.to_bus)
            }
            for neighbor in sorted(neighbors - masks[IIM].scada_lost()):
                iim_err = result.errors[IIM][:, result.bus_ids.index(neighbor)]
                miim_err = result.errors[MIIM][:, result.bus_ids.index(neighbor)]
                p_value = paired_greater_p(iim_err, miim_err)
                assert p_value < 0.05, f"{label}: neighbor {neighbor} p={p_value}"
                tested_buses += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(
        8,
        f"binary-model masks strictly larger and significantly worse at all "
        f"{tested_buses} extra-loss buses over 100 paired seeds ({elapsed:.0f}s)",
    )


def test_criterion_9_distance_oracle():
    import heapq

    def dijkstra(adjacency, nodes, source):
        best = {source: 0.0}
        heap = [(0.0, source)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > best.get(node, float("inf")):
                continue
            for other, w in adjacency.get(node, {}).items():
                nd = d + w
                if nd < best.get(other, float("inf")):
                    best[other] = nd
                    heapq.heappush(heap, (nd, other))
        return best

    rng = random.Random(99)
    for trial in range(100):
        n = rng.randint(3, 50)
        branches = []
        for node in range(2, n + 1):
            other = rng.randint(1, node - 1)
            branches.append(Branch(other, node, 0.01, 0.1, 0.0, rng.randint(1, 40) / 4.0, False))
        for _ in range(rng.randint(0, n)):
            a, b = rng.sample(range(1, n + 1), 2)
            branches.append(Branch(a, b, 0.01, 0.1, 0.0, rng.randint(1, 40) / 4.0, False))
        grid = Grid("rand", [Bus(i) for i in range(1, n + 1)], branches)
        subs = group_substations(grid, SynthesisConfig())
        dm = all_pairs_shortest(grid, subs)
        adjacency = substation_adjacency(grid, subs)
        for source in range(1, n + 1):
            best = dijkstra(adjacency, list(range(1, n + 1)), source)
            for target in range(1, n + 1):
                assert dm.dist(source, target) == best[target]
    report(9, "100 random graphs: all-pairs distances equal the single-source oracle exactly")


def test_criterion_10_end_to_end_determinism(fixtures_dir, tmp_path):
    scenario = str(fixtures_dir / "ieee14_substation6_attack.json")
    out1, out2 = tmp_path / "first", tmp_path / "second"
    assert main(["run", "--scenario", scenario, "--out-dir", str(out1)]) == 0
    assert main(["run", "--scenario", scenario, "--out-dir", str(out2)]) == 0
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    assert names1 == names2 and names1
    for name in names1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    report(10, f"two pipeline runs produced byte-identical artifacts ({len(names1)} files)")
