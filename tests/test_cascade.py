import random

import numpy as np
import pytest

from oracle import arrays, binary_cascade, columns, evaluate, mask_of, named_steps, paths_of, read, to_binary
from jointgrid import entities as ent, ternary
from jointgrid.cascade import (
    FailureScenario,
    FootprintDiff,
    ScenarioError,
    data_availability,
    footprint_diff,
    run_cascade,
    verify_fixpoint,
)
from jointgrid.entities import parse_entity_id
from jointgrid.idr import BINARY, DELIVERY, IIM, LEVELS, MIIM, compile_expr
from jointgrid.network import CASES, MODELS, RuleSet

ATTACK = [parse_entity_id(t) for t in ["P(12)", "C(1,1,6,6)", "C(1,2,6,6)"]]


@pytest.fixture(scope="module")
def attack():
    return FailureScenario.of(ATTACK, "substation-6 attack")


def test_ternary_trace_matches_reference_table(ieee14, attack):
    for case in (1, 2):
        trace = run_cascade(ieee14, ieee14.rule_set(MIIM, case), attack)
        assert trace.converged_at == 3
        assert named_steps(trace, ieee14) == [
            {"P(12)": 0, "C(1,1,6,6)": 0, "C(1,2,6,6)": 0},
            {"C(1,4,1,6)": 0, "C(1,5,1,6)": 0},
            {"C(2,1,1,0)": 1, "C(3,1,1,0)": 1},
        ]


def test_binary_trace_matches_reference_table(ieee14, attack):
    for case in (1, 2):
        trace = run_cascade(ieee14, ieee14.rule_set(IIM, case), attack)
        assert trace.converged_at == 3
        assert named_steps(trace, ieee14) == [
            {"P(12)": 0, "C(1,1,6,6)": 0, "C(1,2,6,6)": 0},
            {"C(1,4,1,6)": 0, "C(1,5,1,6)": 0},
            {"C(2,1,1,0)": 0, "C(3,1,1,0)": 0},
        ]


def test_scada_unavailability_after_attack(ieee14, attack):
    attacked_buses = {12}
    trace1 = run_cascade(ieee14, ieee14.rule_set(IIM, 1), attack)
    mask1 = data_availability(trace1.final_state(), ieee14, ieee14.rule_set(IIM, 1))
    assert mask1.scada_lost() == attacked_buses | {10, 11, 13, 14}

    trace2 = run_cascade(ieee14, ieee14.rule_set(IIM, 2), attack)
    mask2 = data_availability(trace2.final_state(), ieee14, ieee14.rule_set(IIM, 2))
    assert mask2.scada_lost() == attacked_buses | {11, 14}

    for case in (1, 2):
        trace = run_cascade(ieee14, ieee14.rule_set(MIIM, case), attack)
        mask = data_availability(trace.final_state(), ieee14, ieee14.rule_set(MIIM, case))
        assert mask.scada_lost() == attacked_buses
        assert mask.pmu_lost() == set()


def test_empty_kill_set_single_snapshot(ieee14):
    scenario = FailureScenario.of([], "nothing")
    trace = run_cascade(ieee14, ieee14.rule_set(MIIM, 1), scenario)
    assert trace.converged_at == 1
    assert len(arrays(trace)) == 1
    assert set(trace.final_state().values()) == {2}


def test_all_operational_availability(ieee14):
    scenario = FailureScenario.of([], "nothing")
    for model in (MIIM, IIM):
        rule_set = ieee14.rule_set(model, 1)
        trace = run_cascade(ieee14, rule_set, scenario)
        mask = data_availability(trace.final_state(), ieee14, rule_set)
        assert mask.scada_lost() == set()
        assert mask.pmu_lost() == set()
        assert mask.pmu_equipped == {2, 13, 10}


def test_unknown_killed_entity_rejected(ieee14):
    """An unregistered killed entity is named; of a thousand, the error
    names the count and the first five, in one short line."""
    scenario = FailureScenario.of([parse_entity_id("P(99)")])
    with pytest.raises(ScenarioError, match=r"P\(99\)"):
        run_cascade(ieee14, ieee14.rule_set(MIIM, 1), scenario)
    scenario = FailureScenario.of(parse_entity_id(f"P({k})") for k in range(100, 1100))
    with pytest.raises(ScenarioError) as refused:
        run_cascade(ieee14, ieee14.rule_set(MIIM, 1), scenario)
    assert str(refused.value) == "killed entities not in registry (1000): P(100), P(101), P(102), P(103), P(104), ..."


def _trace_fields(trace):
    return trace.changed, trace.fixpoint, trace.converged_at, trace.lowered


def test_kill_set_cascades_once_per_model_and_both_cases_share_its_trace(ieee14):
    """Over the whole 14-bus N-1 family, under both models and in either
    case order, the second case's cascade returns the first case's trace,
    and that trace equals a cold cascade: one under a copy of the rules
    tuple, which gets a program and so a latest trace of its own."""
    for model in MODELS:
        rule_sets = {case: ieee14.rule_set(model, case) for case in CASES}
        cold_set = RuleSet(model, 1, tuple(list(rule_sets[1].rules)), rule_sets[1].availability)
        for order in ((1, 2), (2, 1)):
            for entity in ieee14.entity_ids():
                scenario = FailureScenario.of([entity])
                first, second = (run_cascade(ieee14, rule_sets[case], scenario) for case in order)
                cold = run_cascade(ieee14, cold_set, scenario)
                assert second is first and cold is not first
                assert _trace_fields(first) == _trace_fields(cold)


def test_iim_trace_is_the_binary_cascade(ieee14):
    """Oracle for the projection: every IIM trace of ``run_cascade``, the
    top bit of the ``LEVELS`` cascade, equals ``binary_cascade``, the
    cascade run in ``BINARY``, in every field.  Checked on the empty kill
    set, the 14-bus N-1 family and a triple in both cases, each after its
    MIIM trace; on a seeded sample of 500 N-2 kill sets with IIM asked
    first; and under a fresh copy of the rules tuple, whose program no MIIM
    rule set holds.  The triple's last MIIM step in case 1 only takes
    ``C(3,1,3,0)`` from 1 to 0, so its IIM trace ends a step earlier; no
    N-1 or N-2 kill set's does."""
    entities = ieee14.entity_ids()
    rng = random.Random(36)
    empty, singles = FailureScenario.of([]), [FailureScenario.of([entity]) for entity in entities]
    triple = FailureScenario.of(parse_entity_id(t) for t in ("C(1,2,2,2)", "C(1,3,7,7)", "C(1,6,1,1)"))
    shorter = 0

    def check(rule_set, scenario):
        trace, reference = run_cascade(ieee14, rule_set, scenario), binary_cascade(ieee14, rule_set, scenario)
        fields = [(t.top, t.fixpoint, t.changed, t.lowered, t.converged_at) for t in (trace, reference)]
        assert fields[0] == fields[1], [str(entity) for entity in scenario.killed]
        assert trace.slots is ieee14.slots

    for case in CASES:
        miim_rs, iim_rs = ieee14.rule_set(MIIM, case), ieee14.rule_set(IIM, case)
        for scenario in (empty, *singles, triple):
            miim = run_cascade(ieee14, miim_rs, scenario)
            check(iim_rs, scenario)
            shorter += run_cascade(ieee14, iim_rs, scenario).converged_at < miim.converged_at
    iim_rs = ieee14.rule_set(IIM, 1)
    for _ in range(500):
        check(iim_rs, FailureScenario.of(rng.sample(entities, 2)))
    fresh = RuleSet(IIM, 1, tuple(list(iim_rs.rules)), iim_rs.availability)
    for scenario in (empty, *singles[::5]):
        check(fresh, scenario)
    assert shorter


def test_latest_trace_is_kept_only_for_its_kill_set(ieee14, attack):
    """A different kill set between two equal ones is cascaded afresh, and so
    is the repeat after it.  A kill set naming an unknown entity raises after
    a repeat was served, and the trace kept before it is still served."""
    rule_sets = [ieee14.rule_set(MIIM, case) for case in CASES]
    other = FailureScenario.of([parse_entity_id("P(5)")])
    trace = run_cascade(ieee14, rule_sets[0], attack)
    between = run_cascade(ieee14, rule_sets[1], other)
    again = run_cascade(ieee14, rule_sets[0], attack)
    assert between is not trace and again is not trace
    assert _trace_fields(again) == _trace_fields(trace) != _trace_fields(between)
    assert run_cascade(ieee14, rule_sets[1], attack) is again
    with pytest.raises(ScenarioError, match=r"P\(99\)"):
        run_cascade(ieee14, rule_sets[0], FailureScenario.of([parse_entity_id("P(99)")]))
    assert run_cascade(ieee14, rule_sets[0], attack) is again


def test_rule_body_naming_unregistered_entity_rejected(ieee14, attack):
    import dataclasses

    from jointgrid.idr import OP_MIN_AND, IdrRule, Op

    rule_set = ieee14.rule_set(MIIM, 1)
    first = rule_set.rules[0]
    bad = IdrRule(first.target, Op(OP_MIN_AND, (first.body, ent.bus(99))))
    broken = dataclasses.replace(rule_set, rules=(bad,) + rule_set.rules[1:])
    with pytest.raises(ScenarioError, match=r"P\(99\)"):
        run_cascade(ieee14, broken, attack)


def test_monotone_descent_and_stability_random_kills(ieee14):
    rng = random.Random(3)
    entities = ieee14.entity_ids()
    rule_set = ieee14.rule_set(MIIM, 1)
    for _ in range(50):
        killed = rng.sample(entities, rng.randint(1, 5))
        trace = run_cascade(ieee14, rule_set, FailureScenario.of(killed))
        states = arrays(trace)
        for slot in range(len(entities)):
            values = [array[slot] for array in states]
            assert all(a >= b for a, b in zip(values, values[1:]))
        assert trace.converged_at <= 2 * len(entities)
        assert verify_fixpoint(ieee14, rule_set, trace)


def _raised(trace, slot):
    """``trace`` with ``slot`` of its fixpoint put back at the top level."""
    import dataclasses

    fixpoint = bytearray(trace.fixpoint)
    fixpoint[slot] = trace.top
    return dataclasses.replace(trace, fixpoint=bytes(fixpoint))


def test_verify_fixpoint_refuses_a_slot_above_its_rule(ieee14, attack):
    """``verify_fixpoint``, the oracle of the random-kill and compile-once
    tests, can fail: with any lowered, unattacked slot of the attack's
    fixpoint put back at top, it returns False.  Attacked slots are exempt:
    with ``C(1,1,6,6)`` raised to top while its rule reads 0, it returns
    True."""
    attacked = parse_entity_id("C(1,1,6,6)")
    for model, reading in ((MIIM, LEVELS), (IIM, BINARY)):
        for case in CASES:
            rule_set = ieee14.rule_set(model, case)
            trace = run_cascade(ieee14, rule_set, attack)
            assert verify_fixpoint(ieee14, rule_set, trace)
            unattacked = trace.lowered - trace.changed[0].keys()
            assert unattacked
            for slot in unattacked:
                assert not verify_fixpoint(ieee14, rule_set, _raised(trace, slot)), ieee14.names[slot]
            raised = _raised(trace, ieee14.slots[attacked])
            rule = next(rule for rule in rule_set.rules if rule.target == attacked)
            assert compile_expr(rule.body, ieee14.slots, reading)(raised.fixpoint) == 0
            assert verify_fixpoint(ieee14, rule_set, raised)


def test_rule_order_independence(ieee14, attack):
    rule_set = ieee14.rule_set(MIIM, 1)
    baseline = run_cascade(ieee14, rule_set, attack)
    rng = random.Random(5)
    shuffled_rules = list(rule_set.rules)
    rng.shuffle(shuffled_rules)
    shuffled = RuleSet(rule_set.model, rule_set.case, shuffled_rules, rule_set.availability)
    other = run_cascade(ieee14, shuffled, attack)
    assert other.changed == baseline.changed
    assert arrays(other) == arrays(baseline)


def test_battery_carries_substation_through_bus_loss(ieee14):
    scenario = FailureScenario.of(
        [parse_entity_id("P(5)"), parse_entity_id("P(6)")], "bus loss only"
    )
    trace = run_cascade(ieee14, ieee14.rule_set(MIIM, 1), scenario)
    assert trace.converged_at == 1
    assert len(trace.changed) == 1


def test_powerless_control_center_diverges_across_models(ieee14):
    # With buses and battery gone, the primary control center's equipment
    # dies, its channels follow, and every ring node it fed degrades.  The
    # ternary model contains the loss to the dark substation; the binary
    # model zeroes the rings and predicts a system-wide SCADA blackout.
    scenario = FailureScenario.of(
        [parse_entity_id(t) for t in ("P(5)", "P(6)", "PB(2)")], "powerless CC"
    )
    miim_rs = ieee14.rule_set(MIIM, 1)
    miim_trace = run_cascade(ieee14, miim_rs, scenario)
    assert miim_trace.converged_at == 4
    entities = ieee14.entity_ids()
    assert set(named_steps(miim_trace, ieee14)[1]) == {"C(1,1,2,2)", "C(1,2,2,2)", "R(2)"}
    assert all(entities[slot].indices[:2] in ((1, 4), (1, 5)) for slot in miim_trace.changed[2])
    assert set(miim_trace.changed[3].values()) == {1}
    miim_mask = data_availability(miim_trace.final_state(), ieee14, miim_rs)
    assert miim_mask.scada_lost() == {5, 6}
    assert miim_mask.pmu_lost() == set()

    iim_rs = ieee14.rule_set(IIM, 1)
    iim_trace = run_cascade(ieee14, iim_rs, scenario)
    assert iim_trace.converged_at == 4
    assert set(iim_trace.changed[3].values()) == {0}
    iim_mask = data_availability(iim_trace.final_state(), ieee14, iim_rs)
    assert iim_mask.scada_lost() == set(ieee14.grid.bus_ids) - {4, 7, 9}
    assert iim_mask.pmu_lost() == {2, 10, 13}


def test_binary_footprint_contains_ternary_footprint(ieee14, attack):
    for case in (1, 2):
        miim_rs = ieee14.rule_set(MIIM, case)
        iim_rs = ieee14.rule_set(IIM, case)
        miim_mask = data_availability(
            run_cascade(ieee14, miim_rs, attack).final_state(), ieee14, miim_rs
        )
        iim_mask = data_availability(
            run_cascade(ieee14, iim_rs, attack).final_state(), ieee14, iim_rs
        )
        assert miim_mask.scada_lost() <= iim_mask.scada_lost()
        assert miim_mask.pmu_lost() <= iim_mask.pmu_lost()


def test_footprint_diff_reference_sets(ieee14, attack):
    masks = {}
    for model in (MIIM, IIM):
        for case in (1, 2):
            rule_set = ieee14.rule_set(model, case)
            trace = run_cascade(ieee14, rule_set, attack)
            masks[(model, case)] = data_availability(trace.final_state(), ieee14, rule_set)

    diff = footprint_diff(masks[(MIIM, 1)], masks[(IIM, 1)])
    assert diff.scada_only_b == {10, 11, 13, 14}
    assert diff.scada_only_a == set()

    case_diff = footprint_diff(masks[(IIM, 2)], masks[(IIM, 1)])
    assert case_diff.scada_only_b == {10, 13}
    assert case_diff.scada_only_a == set()

    same = footprint_diff(masks[(MIIM, 1)], masks[(MIIM, 2)])
    assert same == FootprintDiff()


def test_footprint_diff_bus_set_mismatch(ieee14_grid, ieee14, ieee118, attack):
    """Masks of one availability program share one bus set; any other two
    masks are compared by their buses, whichever program made them."""
    from jointgrid.synthesis import build_joint_network

    mask_a = mask_of({1: True}, {1: False})
    mask_b = mask_of({2: True}, {2: False})
    with pytest.raises(ValueError, match="different bus sets"):
        footprint_diff(mask_a, mask_b)
    rule_set = ieee14.rule_set(MIIM, 1)
    mask = data_availability(run_cascade(ieee14, rule_set, attack), ieee14, rule_set)
    fewer = mask_of({bus: ok for bus, ok in mask.scada.items() if bus != 14}, mask.pmu, mask.pmu_equipped)
    unread = data_availability(run_cascade(ieee14, rule_set, attack), ieee14, rule_set)
    for pair in ((mask, fewer), (fewer, mask), (unread, fewer), (fewer, unread)):
        with pytest.raises(ValueError, match="different bus sets"):
            footprint_diff(*pair)
    other = build_joint_network(ieee14_grid)
    other_rule_set = other.rule_set(MIIM, 1)
    twin = data_availability(run_cascade(other, other_rule_set, attack), other, other_rule_set)
    assert footprint_diff(unread, twin) == footprint_diff(twin, unread) == FootprintDiff()
    rule_set = ieee118.rule_set(MIIM, 1)
    large = data_availability(run_cascade(ieee118, rule_set, FailureScenario.of([])), ieee118, rule_set)
    for pair in ((unread, large), (large, unread)):
        with pytest.raises(ValueError, match="different bus sets"):
            footprint_diff(*pair)


def test_masks_and_traces_are_read_only(ieee14, attack):
    """A mask's flag maps and a trace's fixpoint and lowered slots cannot be
    written, so neither a mask's lost sets nor the next mask of a shared
    trace can go stale.  A mask built from flag maps does not follow later
    edits to them, and a mask given a new flag map of either kind scans
    that kind's lost set from it."""
    rule_set = ieee14.rule_set(MIIM, 1)
    trace = run_cascade(ieee14, rule_set, attack)
    mask = data_availability(trace, ieee14, rule_set)
    flags = {bus: False for bus in mask.scada}
    built = mask_of(flags, flags, frozenset(flags))
    for target in (mask.scada, mask.pmu, built.scada, trace.fixpoint):
        with pytest.raises(TypeError):
            target[12] = True
    for edit in (lambda: trace.lowered.add(0), lambda: trace.lowered.clear()):
        with pytest.raises(AttributeError):
            edit()
    for unread in (mask, built):  # a mask has its four fields, and no other attribute
        with pytest.raises(AttributeError, match="'AvailabilityMask' object has no attribute 'flags'"):
            unread.flags
    flags[12] = True
    assert built.scada_lost() == built.pmu_lost() == set(flags)
    assert mask.scada_lost() == {12}
    mask.scada = flags
    assert mask.scada_lost() == set(flags) - {12}
    mask.pmu = flags
    assert mask.pmu_lost() == mask.pmu_equipped - {12} and mask.pmu_lost()
    with pytest.raises(TypeError):
        mask.scada[12] = False


def test_value_history(ieee14, attack):
    trace = run_cascade(ieee14, ieee14.rule_set(MIIM, 1), attack)
    ring_node, bus = trace.slots[parse_entity_id("C(2,1,1,0)")], trace.slots[parse_entity_id("P(12)")]
    assert [array[ring_node] for array in arrays(trace)] == [2, 2, 1]
    assert [array[bus] for array in arrays(trace)] == [0, 0, 0]


_KIND = {ent.KIND_GW_SCADA: "scada", ent.KIND_GW_PMU: "pmu"}


@pytest.mark.parametrize("network_name, seed", [("ieee14", 11), ("ieee118", 12)])
def test_compiled_availability_matches_interpreter(request, network_name, seed):
    """Each SCADA and PMU expression compiled by ``compile_expr`` under its
    rule set's model evaluates as the oracle's interpretive ``evaluate`` does
    on the expression that model reads, and the mask follows those values,
    at the fixpoints of 50 random kill sets under all four rule sets."""
    network = request.getfixturevalue(network_name)
    rng = random.Random(seed)
    entities = network.entity_ids()
    kill_sets = [FailureScenario.of(rng.sample(entities, rng.randint(1, 5))) for _ in range(50)]
    lossy = 0
    for model in MODELS:
        for case in CASES:
            rule_set = network.rule_set(model, case)
            paths = [
                (rule.target.indices[0], _KIND[rule.target.kind], rule.body, read_rule.body)
                for rule, read_rule in zip(rule_set.availability, read(rule_set).availability)
            ]
            fns = [compile_expr(expr, network.slots, {MIIM: LEVELS, IIM: BINARY}[model]) for _, _, expr, _ in paths]
            traces = [run_cascade(network, rule_set, scenario) for scenario in kill_sets]
            finals = [trace.final_state() for trace in traces]
            state = columns(entities, [list(final.values()) for final in finals])
            oracles = [evaluate(read_expr, state).tolist() for _, _, _, read_expr in paths]
            for k, (trace, final) in enumerate(zip(traces, finals)):
                oracle = [values[k] for values in oracles]
                array = arrays(trace)[-1]
                assert [fn(array) for fn in fns] == oracle
                delivered = {
                    (sub_id, kind): value >= 1 for (sub_id, kind, _, _), value in zip(paths, oracle)
                }
                mask = data_availability(final, network, rule_set)
                scada, pmu = mask.scada, mask.pmu  # each read derives a map
                for sub in network.substations:
                    pmu_ok = sub.has_pmu and delivered.get((sub.id, "pmu"), False)
                    for bus in sub.buses:
                        assert scada[bus] == delivered[sub.id, "scada"]
                        assert pmu[bus] == pmu_ok
                        assert (bus in mask.pmu_equipped) == sub.has_pmu
                assert set(scada) == set(network.grid.bus_ids)
                lossy += bool(mask.scada_lost() or mask.pmu_lost())
    assert lossy > 0


def test_entity_order_is_sorted_registry(ieee14, ieee118):
    for network in (ieee14, ieee118):
        order = network.entity_ids()
        assert list(order) == sorted(network.registry)
        assert network.slots == {entity: i for i, entity in enumerate(order)}
        assert isinstance(network.names, tuple) and len(network.names) == len(order)
        assert all(name == str(entity) for name, entity in zip(network.names, order))


def _superset_violations(network):
    """Every single-entity failure under both models and both cases: the
    scenarios where the binary fixpoint is somewhere above the ternary one
    read as binary, or the binary model loses less SCADA or PMU data than
    the ternary one, and the scenarios where it loses strictly more.  Only a
    slot the ternary cascade lowered can hold a ternary 0, so only those
    slots are compared."""
    violations, strictly_larger = [], set()
    for case in CASES:
        miim_rs, iim_rs = network.rule_set(MIIM, case), network.rule_set(IIM, case)
        for entity in network.entity_ids():
            scenario = FailureScenario.of([entity])
            miim = run_cascade(network, miim_rs, scenario).final_state()
            iim = run_cascade(network, iim_rs, scenario).final_state()
            if any(iim.fixpoint[slot] > to_binary(miim.fixpoint[slot]) for slot in miim.lowered):
                violations.append((case, str(entity), "fixpoint"))
            miim_mask = data_availability(miim, network, miim_rs)
            iim_mask = data_availability(iim, network, iim_rs)
            for kind, lost_miim, lost_iim in (
                ("SCADA", miim_mask.scada_lost(), iim_mask.scada_lost()),
                ("PMU", miim_mask.pmu_lost(), iim_mask.pmu_lost()),
            ):
                if not lost_miim <= lost_iim:
                    violations.append((case, str(entity), kind))
                elif lost_miim < lost_iim:
                    strictly_larger.add((case, entity))
    return violations, strictly_larger


def test_binary_loses_superset_under_every_single_failure(ieee14):
    """The paper's claim, on the full 14-bus N-1 family: under every
    single-entity failure the binary fixpoint is nowhere above the ternary
    one read as binary, and the binary model loses at least the SCADA and
    PMU data the ternary model loses."""
    violations, strictly_larger = _superset_violations(ieee14)
    assert violations == []
    assert strictly_larger


def test_binary_loses_superset_under_every_single_failure_118(ieee118):
    """The same claim on the full 118-bus N-1 family: 2392 entities under
    both cases."""
    violations, strictly_larger = _superset_violations(ieee118)
    assert violations == []
    assert len(strictly_larger) == 1611


@pytest.mark.parametrize("network_name, seed, states", [("ieee14", 41, 40), ("ieee118", 42, 8)])
def test_binary_reading_is_below_the_ternary_one_per_rule(request, network_name, seed, states):
    """The lemma of the superset argument (``cascade``'s docstring), on every
    compiled cascade and data-path rule at random ternary states ``s``:
    IIM's reading at ``proj(s)``, the state read as binary, is at most
    ``proj`` of MIIM's reading at ``s``, in levels and in the delivery
    reading alike; and somewhere it is strictly below."""
    network = request.getfixturevalue(network_name)
    rng = random.Random(seed)
    bodies = {
        id(rule.body): rule.body
        for case in CASES
        for rule in (*network.rule_set(MIIM, case).rules, *network.rule_set(MIIM, case).availability)
    }.values()
    readings = [  # MIIM in levels, MIIM's delivery reading, IIM
        [compile_expr(body, network.slots, reading) for reading in (LEVELS, DELIVERY, BINARY)]
        for body in bodies
    ]
    strict = 0
    for _ in range(states):
        levels = rng.choices(ternary.TERNARY_LEVELS, k=len(network.slots))
        projected = bytes(map(to_binary, levels))
        for miim, delivery, iim in readings:
            binary = iim(projected)
            assert binary <= to_binary(miim(levels)) and binary <= bool(delivery(levels))
            strict += binary < bool(delivery(levels))
    assert strict


def test_binary_state_is_below_the_ternary_one_at_every_step(ieee14):
    """The induction of the superset argument, on every trace of the 14-bus
    N-1 family in both cases: at every step IIM's state is nowhere above
    MIIM's state read as binary, each trace held at its fixpoint after it
    converges."""
    for case in CASES:
        for entity in ieee14.entity_ids():
            scenario = FailureScenario.of([entity])
            miim, iim = (
                np.array(arrays(run_cascade(ieee14, ieee14.rule_set(model, case), scenario))) for model in (MIIM, IIM)
            )
            steps = max(len(miim), len(iim))
            miim, iim = (np.pad(states, ((0, steps - len(states)), (0, 0)), mode="edge") for states in (miim, iim))
            assert (iim <= (miim >= 1)).all(), (case, str(entity))


def _dense_masks(network, rule_set, finals):
    """The masks by their definition: every availability rule, as the rule
    set's model reads it, evaluated by the oracle at each fixpoint of
    ``finals``, in one call per rule."""
    state = columns(network.entity_ids(), [list(final.values()) for final in finals])
    masks = [({}, {}) for _ in finals]
    for sub in network.substations:
        scada_rule, pmu_rule = paths_of(read(rule_set), sub.id)
        scada_ok = (evaluate(scada_rule.body, state) >= 1).tolist()
        if sub.has_pmu and pmu_rule is not None:
            pmu_ok = (evaluate(pmu_rule.body, state) >= 1).tolist()
        else:
            pmu_ok = [False] * len(finals)
        for (scada, pmu), scada_k, pmu_k in zip(masks, scada_ok, pmu_ok):
            for bus in sub.buses:
                scada[bus], pmu[bus] = scada_k, pmu_k
    equipped = frozenset(bus for sub in network.substations if sub.has_pmu for bus in sub.buses)
    return [mask_of(scada, pmu, equipped) for scada, pmu in masks]


def test_incremental_availability_matches_dense_masks(ieee14):
    """``data_availability`` evaluates only the expressions that read a
    lowered slot; under every 14-bus single-entity failure and all four rule
    sets its mask equals the dense one, bus order included, and the lost
    sets it holds are those a scan of its flags finds.

    A mask is its lost sets and holds no per-instance dict.  Its lost sets
    are the dense ones, and ``footprint_diff`` of a kill set's two models'
    masks equals that of map-built copies.  A copy by
    ``dataclasses.replace`` equals the dense mask.  A flag map is the
    full-operation map with the buses the mask lost beyond it set false, in
    the same key order, and a lost set that gained no bus is the
    full-operation mask's own."""
    import dataclasses

    lossy = 0
    for case in CASES:
        full, masks, denses = {}, {}, {}
        for model in MODELS:
            rule_set = ieee14.rule_set(model, case)
            full[model] = data_availability(run_cascade(ieee14, rule_set, FailureScenario.of([])), ieee14, rule_set)
            finals = [
                run_cascade(ieee14, rule_set, FailureScenario.of([entity])).final_state()
                for entity in ieee14.entity_ids()
            ]
            masks[model] = [data_availability(final, ieee14, rule_set) for final in finals]
            denses[model] = _dense_masks(ieee14, rule_set, finals)
        for pair, dense_pair in zip(zip(masks[MIIM], masks[IIM]), zip(denses[MIIM], denses[IIM])):
            for mask, dense in zip(pair, dense_pair):
                assert (mask.scada_lost(), mask.pmu_lost()) == (dense.scada_lost(), dense.pmu_lost())
            diff = footprint_diff(*pair)
            assert not any(hasattr(mask, "__dict__") for mask in pair)
            copies = [mask_of(dict(m.scada), dict(m.pmu), m.pmu_equipped) for m in pair]
            assert footprint_diff(*copies) == diff
        for model in MODELS:
            for mask, dense in zip(masks[model], denses[model]):
                assert dataclasses.replace(mask) == dense
                for kind, lost in (("scada", mask.scada_lost()), ("pmu", mask.pmu_lost())):
                    flags = getattr(full[model], kind)
                    cleared = lost - {bus for bus, ok in flags.items() if not ok}
                    assert list(getattr(mask, kind).items()) == list({**flags, **dict.fromkeys(cleared, False)}.items())
                    assert cleared or getattr(mask, f"lost_{kind}") is getattr(full[model], f"lost_{kind}")
                assert mask == dense
                assert list(mask.scada) == list(dense.scada) == list(mask.pmu)
                assert mask.scada_lost() == {bus for bus, ok in mask.scada.items() if not ok}
                assert mask.pmu_lost() == {bus for bus in mask.pmu_equipped if not mask.pmu[bus]}
                lossy += bool(mask.scada_lost() or mask.pmu_lost())
    assert lossy > 0


def test_one_pass_serves_both_models_masks(ieee14):
    """Oracle for the shared pass: one ``LEVELS`` evaluation per (trace,
    case) gives both models' masks, each equal to ``_dense_masks``, which
    reads every data-path rule at the model's own fixpoint.  Checked on the
    14-bus N-1 family, each kill set in both cases, with IIM asked first for
    every other kill set; on 500 seeded N-2 kill sets; and on a trace older
    than the program's latest pass, both one of another kill set and one of
    the same kill set under a rule set with the same data-path rules and no
    cascade rules, whose fixpoint differs.  A mask asked twice is two equal
    masks, and assigning a flag map to one leaves the other as it was."""
    import dataclasses

    entities, rng = ieee14.entity_ids(), random.Random(37)
    kill_sets = [[entity] for entity in entities] + [rng.sample(entities, 2) for _ in range(500)]
    masks, finals = {}, {}
    for index, killed in enumerate(kill_sets):
        scenario = FailureScenario.of(killed)
        for case in CASES:
            for model in MODELS if index % 2 else MODELS[::-1]:
                rule_set = ieee14.rule_set(model, case)
                final = run_cascade(ieee14, rule_set, scenario)
                finals.setdefault((model, case), []).append(final)
                masks.setdefault((model, case), []).append(data_availability(final, ieee14, rule_set))
    lossy = 0
    for (model, case), found in masks.items():
        dense = _dense_masks(ieee14, ieee14.rule_set(model, case), finals[model, case])
        assert [dataclasses.replace(mask) for mask in found] == dense, (model, case)
        assert [(m.scada_lost(), m.pmu_lost()) for m in found] == [(m.scada_lost(), m.pmu_lost()) for m in dense]
        lossy += sum(bool(mask.scada_lost() or mask.pmu_lost()) for mask in found)
    assert lossy

    older, other = FailureScenario.of([parse_entity_id("C(1,2,1,1)")]), FailureScenario.of([entities[0]])
    for model in MODELS:
        rule_set = ieee14.rule_set(model, 1)
        bare = RuleSet(model, 1, (), rule_set.availability)
        traces = [run_cascade(ieee14, rule_set, older), run_cascade(ieee14, bare, older)]
        traces.append(run_cascade(ieee14, rule_set, other))
        dense = [_dense_masks(ieee14, rule_set, [trace])[0] for trace in traces]
        assert dense[0] != dense[1]
        for order in ((0, 1, 0), (1, 0, 1), (2, 0, 2, 1)):
            assert [data_availability(traces[k], ieee14, rule_set) for k in order] == [dense[k] for k in order]
        first, second = (data_availability(traces[0], ieee14, rule_set) for _ in range(2))
        assert first == second and first is not second
        lost = second.scada_lost()
        first.scada = dict.fromkeys(first.scada, False)
        assert second.scada_lost() == lost != first.scada_lost() and second == dense[0]


_READING_NAMES = {id(LEVELS): "levels", id(DELIVERY): "delivery", id(BINARY): "binary"}


def _count_calls(monkeypatch, network):
    """Count what ``cascade`` does on ``network``'s rule sets: the cascade
    rule bodies it compiles, the availability expressions it compiles (by
    body and reading, in order), the calls of the functions it compiled and
    its ``reference_problems`` walks."""
    from jointgrid import cascade

    availability = {
        id(rule.body) for rule_set in network.rule_sets.values() for rule in rule_set.availability
    }
    calls = {"cascade": 0, "availability": [], "evaluated": 0, "reference_problems": 0}

    def counting_compile(expr, slots, reading):
        if id(expr) in availability:
            calls["availability"].append((id(expr), _READING_NAMES[id(reading)]))
        else:
            calls["cascade"] += 1
        return counting(compile_expr(expr, slots, reading), "evaluated")

    def counting(original, name):
        def count(*args):
            calls[name] += 1
            return original(*args)

        return count

    monkeypatch.setattr(cascade, "compile_expr", counting_compile)
    monkeypatch.setattr(
        cascade, "reference_problems", counting(cascade.reference_problems, "reference_problems")
    )
    return calls


def test_models_share_their_program_tables(ieee14):
    """What a program holds besides its functions does not depend on the
    model: the four rule sets, which hold one rules tuple, share one cascade
    program; a case's MIIM and IIM rule sets share one availability program,
    whose one set of functions is compiled in ``LEVELS`` for both models;
    and each model's cases share its cascade functions."""
    from jointgrid.cascade import _programs

    programs = {key: _programs(ieee14, rule_set) for key, rule_set in ieee14.rule_sets.items()}
    assert len({id(cascade) for cascade, _ in programs.values()}) == 1
    for case in CASES:
        (miim, miim_availability), (iim, iim_availability) = programs[MIIM, case], programs[IIM, case]
        assert miim_availability is iim_availability
        assert miim.fns[MIIM] is not iim.fns[IIM]
        assert list(miim_availability.fns) == [MIIM] and miim_availability.fns[MIIM].reading is LEVELS
        tops = [run_cascade(ieee14, ieee14.rule_set(model, case), FailureScenario.of([])).top for model in MODELS]
        assert tops == [2, 1]
    assert programs[MIIM, 1][1] is not programs[MIIM, 2][1]
    for model in MODELS:
        assert programs[model, 1][0].fns[model] is programs[model, 2][0].fns[model]


def test_programs_belong_to_their_network(ieee14, attack):
    """A copy of a network with an equal slot map and the very same rule
    sets compiles its own programs, and they die with it: the network holds
    them, and no program refers to its network."""
    import dataclasses
    import gc
    import weakref

    from jointgrid.cascade import _programs

    rule_set = ieee14.rule_set(MIIM, 1)
    other = dataclasses.replace(ieee14)
    assert other.slots == ieee14.slots and other.rule_set(MIIM, 1) is rule_set
    assert run_cascade(other, rule_set, attack).changed == run_cascade(ieee14, rule_set, attack).changed
    own, shared = _programs(other, rule_set), _programs(ieee14, rule_set)
    assert own[0] is not shared[0] and own[1] is not shared[1]
    network_ref, program_refs = weakref.ref(other), [weakref.ref(program) for program in own]
    del other, own
    gc.collect()
    assert network_ref() is None
    assert [ref() for ref in program_refs] == [None, None]


def test_reindexed_network_compiles_afresh(ieee14, attack):
    """A copy over a registry with one more entity, which sorts first, makes
    its own slot map and compiles its own programs: every slot shifts, and
    the masks stay as they were.  The entity texts shift with the slots."""
    import dataclasses

    from jointgrid.cascade import _programs

    wider = dataclasses.replace(ieee14, registry={**ieee14.registry, ent.bus(0): ieee14.registry[ent.bus(1)]})
    masks = []
    for network in (ieee14, wider):
        rule_set = network.rule_set(MIIM, 1)
        trace = run_cascade(network, rule_set, attack)
        masks.append(data_availability(trace.final_state(), network, rule_set))
    assert masks[0] == masks[1] and masks[0].scada_lost() == {12}
    assert wider.names == ("P(0)", *ieee14.names) == tuple(map(str, wider.entity_order))
    rule_set = ieee14.rule_set(MIIM, 1)
    own, original = _programs(wider, rule_set), _programs(ieee14, rule_set)
    assert own[0] is not original[0] and own[1] is not original[1]
    assert own[0].readers != original[0].readers


def test_each_rule_set_compiles_once(ieee14_grid, monkeypatch):
    """The cases share one cascade rules tuple per model and so one compiled
    cascade program: case 2 compiles no cascade rule after case 1 did.  A
    case's availability expressions compile in ``LEVELS`` only, each at most
    once, under the model asked first: the other model's mask of the same
    trace compiles none.  A second pass over all four rule sets compiles
    nothing.  Clean rule sets are
    checked by the compilers' own slot lookups, with no
    ``reference_problems`` walk."""
    from jointgrid.synthesis import build_joint_network

    network = build_joint_network(ieee14_grid)
    calls = _count_calls(monkeypatch, network)
    scenario = FailureScenario.of(ATTACK)

    def screen_all():
        """Cascade, availability and fixpoint check under every rule set;
        returns the cascade rules and the availability expressions each rule
        set compiled."""
        compiled = {}
        for model in MODELS:
            for case in CASES:
                cascade_before, availability_before = calls["cascade"], len(calls["availability"])
                rule_set = network.rule_set(model, case)
                trace = run_cascade(network, rule_set, scenario)
                data_availability(trace.final_state(), network, rule_set)
                assert verify_fixpoint(network, rule_set, trace)
                compiled[model, case] = (
                    calls["cascade"] - cascade_before,
                    calls["availability"][availability_before:],
                )
        return compiled

    compiled = screen_all()
    compiles = (calls["cascade"], list(calls["availability"]))
    screen_all()
    assert (calls["cascade"], calls["availability"]) == compiles
    assert calls["reference_problems"] == 0
    for model in MODELS:
        assert network.rule_set(model, 1).rules is network.rule_set(model, 2).rules
        assert compiled[model, 1][0] > 0
        assert compiled[model, 2][0] == 0
    for case in CASES:
        bodies = compiled[MIIM, case][1]
        own = {(id(rule.body), "levels") for rule in network.rule_set(MIIM, case).availability}
        assert bodies and len(set(bodies)) == len(bodies) and set(bodies) <= own
        assert compiled[IIM, case][1] == []


def test_compiled_functions_count_their_rules_and_seconds(ieee14_grid, monkeypatch):
    """A cascade program's ``LEVELS`` functions keep the number of rules
    compiled (``len``) and the seconds spent in ``compile_expr``
    (``seconds``).  On a fresh network, under either model, the count is the
    number of distinct rules the cascade evaluated, and cascading a kill set
    again, after another one, adds neither count nor seconds.  An IIM
    cascade compiles no ``BINARY`` function: its trace is the top bit of the
    ``LEVELS`` one."""
    from jointgrid import cascade
    from jointgrid.synthesis import build_joint_network

    evaluated = set()

    def recording_compile(expr, slots, reading):
        fn = compile_expr(expr, slots, reading)

        def record(state):
            evaluated.add(record)
            return fn(state)

        return record

    monkeypatch.setattr(cascade, "compile_expr", recording_compile)
    attack, other = FailureScenario.of(ATTACK), FailureScenario.of([parse_entity_id("P(4)")])
    for model in MODELS:
        network = build_joint_network(ieee14_grid)
        rule_set = network.rule_set(model, 1)
        program = cascade._programs(network, rule_set)[0]
        fns, binary = program.fns[MIIM], program.fns[IIM]
        assert (len(fns), fns.seconds) == (0, 0.0)
        evaluated.clear()
        run_cascade(network, rule_set, attack)
        assert len(fns) == len(evaluated) > 0
        assert fns.seconds > 0.0
        run_cascade(network, rule_set, other)
        count, seconds = len(fns), fns.seconds
        assert count == len(evaluated)
        evaluated.clear()
        run_cascade(network, rule_set, attack)
        assert evaluated and (len(fns), fns.seconds) == (count, seconds)
        assert (len(binary), binary.seconds) == (0, 0.0)


def test_availability_evaluates_only_what_a_failure_lowered(ieee14_grid, monkeypatch):
    """At full operation every data path delivers: an empty kill set
    evaluates and compiles no availability expression.  A second pass over
    the 14-bus N-1 family compiles nothing the first did not."""
    from jointgrid.synthesis import build_joint_network

    network = build_joint_network(ieee14_grid)
    calls = _count_calls(monkeypatch, network)
    for rule_set in network.rule_sets.values():
        final = run_cascade(network, rule_set, FailureScenario.of([])).final_state()
        mask = data_availability(final, network, rule_set)
        assert not final.lowered
        assert not (mask.scada_lost() or mask.pmu_lost())
        assert mask == _dense_masks(network, rule_set, [final])[0]
    assert calls["evaluated"] == 0
    assert calls["availability"] == []

    def screen_all():
        for rule_set in network.rule_sets.values():
            for entity in network.entity_ids():
                final = run_cascade(network, rule_set, FailureScenario.of([entity])).final_state()
                data_availability(final, network, rule_set)

    screen_all()
    compiled = list(calls["availability"])
    evaluated = calls["evaluated"]
    screen_all()
    assert compiled and evaluated > 0
    assert calls["evaluated"] == 2 * evaluated
    assert calls["availability"] == compiled


class _Reads(dict):
    """A model's compiled functions that record each rule index looked up."""

    def __init__(self, fns):
        super().__init__()
        self.fns, self.read = fns, []

    def __getitem__(self, index):
        self.read.append(index)
        return self.fns[index]


def test_masks_evaluate_the_readers_of_lowered_slots_once_per_trace_and_case(ieee14, monkeypatch):
    """Over the 14-bus N-1 family in both cases, with either model asked
    first, a kill set's first mask evaluates once each data-path rule that
    reads a lowered entity, and no other rule: one that reads only entities
    at top is at top.  The other model's mask of that trace, and a repeat of
    the first, evaluate nothing.  Under IIM every lowered entity is at 0;
    under MIIM some kill set lowers entities to 1 that a data-path rule
    reads, so MIIM's mask alone needs strictly fewer rules than read a
    lowered entity: those that read an entity at 0."""
    from jointgrid.cascade import _programs

    fewer = 0
    for case in CASES:
        rule_sets = {model: ieee14.rule_set(model, case) for model in MODELS}
        program = _programs(ieee14, rule_sets[MIIM])[1]
        assert program is _programs(ieee14, rule_sets[IIM])[1]
        reads = _Reads(program.fns[MIIM])
        monkeypatch.setitem(program.fns, MIIM, reads)
        for index, entity in enumerate(ieee14.entity_ids()):
            finals, read = {}, []
            for model in MODELS if index % 2 else MODELS[::-1]:
                finals[model] = run_cascade(ieee14, rule_sets[model], FailureScenario.of([entity])).final_state()
                reads.read.clear()
                for _ in range(2):
                    data_availability(finals[model], ieee14, rule_sets[model])
                read.append(sorted(reads.read))
            miim, iim = finals[MIIM], finals[IIM]
            failed = {i for i, rule in enumerate(program.rules) if any(miim[e] == 0 for e in rule.literals)}
            lowered = {i for i, rule in enumerate(program.rules) if any(miim[e] < miim.top for e in rule.literals)}
            assert read == [sorted(lowered), []], (case, str(entity))
            assert lowered == {i for i, rule in enumerate(program.rules) if any(iim[e] == 0 for e in rule.literals)}
            fewer += failed < lowered
    assert fewer


def _dense_steps(network, rule_set, arrays, kill_sets):
    """One synchronous step of the cascade's definition from each state of
    ``arrays``: every rule, as the rule set's model reads it, re-evaluated
    at that state, in one oracle call per rule, with the attacked entities
    of the state's kill set held at 0."""
    entities = network.entity_ids()
    state = columns(entities, arrays)
    following = dict(state)
    for rule in read(rule_set).rules:
        held = np.array([rule.target in killed for killed in kill_sets])
        following[rule.target] = np.where(held, state[rule.target], evaluate(rule.body, state))
    return np.array([following[entity] for entity in entities]).T.tolist()


@pytest.mark.parametrize("network_name, seed, runs", [("ieee14", 21, 30), ("ieee118", 22, 3)])
def test_replayed_steps_match_dense_evaluation(request, network_name, seed, runs):
    """The trace's replayed arrays start at the top level with the attacked
    entities at 0, each later array is one dense step of the oracle's
    ``evaluate`` over every rule from the one before, and the last is a
    fixed point."""
    network = request.getfixturevalue(network_name)
    rng = random.Random(seed)
    entities = network.entity_ids()
    kill_sets = [set(rng.sample(entities, rng.randint(1, 5))) for _ in range(runs)]
    deepest = 0
    for model in MODELS:
        top = 2 if model == MIIM else 1
        for case in CASES:
            rule_set = network.rule_set(model, case)
            traces = [run_cascade(network, rule_set, FailureScenario.of(killed)) for killed in kill_sets]
            replayed = [arrays(trace) for trace in traces]
            for killed, trace, states in zip(kill_sets, traces, replayed):
                state = {entity: 0 if entity in killed else top for entity in entities}
                assert states[0] == list(state.values())
                deepest = max(deepest, trace.converged_at)
            # The dense step from each array of a trace is the next array,
            # and from the last array the last array itself.
            every = [array for states in replayed for array in states]
            held = [killed for killed, states in zip(kill_sets, replayed) for _ in states]
            following = [array for states in replayed for array in (*states[1:], states[-1])]
            assert _dense_steps(network, rule_set, every, held) == following
    assert deepest >= 3


def test_trace_keeps_one_state_and_final_state_is_a_view(ieee14, attack):
    """A trace keeps one full-length state, its fixpoint as immutable
    bytes, and is itself the fixpoint's read-only mapping in canonical
    entity order; its steps are keyed by slot, in slot order."""
    trace = run_cascade(ieee14, ieee14.rule_set(MIIM, 1), attack)
    entities = ieee14.entity_ids()
    final = trace.final_state()
    assert final is trace
    full_length = [v for v in vars(trace).values() if isinstance(v, (list, bytes)) and len(v) == len(entities)]
    assert full_length == [trace.fixpoint] and type(trace.fixpoint) is bytes
    assert list(final) == list(entities) and len(final) == len(entities)
    assert final == dict(zip(entities, arrays(trace)[-1]))
    assert trace.lowered == {slot for slot, value in enumerate(trace.fixpoint) if value < trace.top}
    assert all(list(step) == sorted(step) for step in trace.changed)
    with pytest.raises(KeyError):
        final[ent.bus(999)]
    with pytest.raises(TypeError):
        final[entities[0]] = 0


def test_availability_rejects_state_of_another_network(ieee14_grid, ieee14, attack):
    from jointgrid.synthesis import build_joint_network

    other = build_joint_network(ieee14_grid)
    trace = run_cascade(other, other.rule_set(MIIM, 1), attack)
    rule_set = ieee14.rule_set(MIIM, 1)
    for state in (trace.final_state(), dict(trace.final_state())):
        with pytest.raises(ValueError, match="this network"):
            data_availability(state, ieee14, rule_set)


def test_availability_rejects_state_of_another_model(ieee14, attack):
    """A fixpoint is read only under its own model's rule sets.  Either
    model's fixpoint of the attack, given with the other model's rule set,
    raises rather than report SCADA buses 10-14 lost instead of 12."""
    for case in CASES:
        for model, other in ((MIIM, IIM), (IIM, MIIM)):
            final = run_cascade(ieee14, ieee14.rule_set(model, case), attack).final_state()
            assert data_availability(final, ieee14, ieee14.rule_set(model, case)).scada_lost()
            with pytest.raises(ValueError, match=f"not that of the {other} rule set"):
                data_availability(final, ieee14, ieee14.rule_set(other, case))


def test_availability_refuses_a_binary_trace_with_no_levels(ieee14, attack):
    """An IIM trace that was not projected from a ``LEVELS`` cascade has no
    MIIM fixpoint for a mask to read, and is refused: the oracle's
    ``binary_cascade``, though its fixpoint is ``run_cascade``'s, and a
    copy of a ``run_cascade`` trace, whose fixpoint may have been edited."""
    import dataclasses

    rule_set = ieee14.rule_set(IIM, 1)
    trace = run_cascade(ieee14, rule_set, attack)
    assert data_availability(trace, ieee14, rule_set).scada_lost() == {10, 11, 12, 13, 14}
    for copy in (binary_cascade(ieee14, rule_set, attack), dataclasses.replace(trace, fixpoint=bytes(len(ieee14.slots)))):
        assert copy.levels is None
        with pytest.raises(ValueError, match="not produced by a cascade on this network"):
            data_availability(copy, ieee14, rule_set)
    assert binary_cascade(ieee14, rule_set, attack).fixpoint == trace.fixpoint


def test_one_tuple_given_as_both_rule_lists_gets_both_programs(ieee14, attack):
    """Programs are cached per kind: a rule set whose availability tuple is
    its cascade rules tuple gets an availability program of its own, which
    refuses those rules as data-path rules."""
    rules = ieee14.rule_set(MIIM, 1).rules
    with pytest.raises(ScenarioError, match="^availability rules: no availability rules for substation 1"):
        run_cascade(ieee14, RuleSet(MIIM, 1, rules, rules), attack)


def test_availability_program_copies_the_substation_buses(ieee14_grid, attack):
    """A compiled availability program holds its own copy of each
    substation's buses: a bus appended to a substation after a cascade does
    not enter the next mask, whose bus set stays the full-operation mask's."""
    from jointgrid.synthesis import build_joint_network

    network = build_joint_network(ieee14_grid)
    rule_set = network.rule_set(MIIM, 1)

    def mask(scenario):
        return data_availability(run_cascade(network, rule_set, scenario).final_state(), network, rule_set)

    full = mask(FailureScenario.of([]))
    mask(attack)
    network.substation(6).buses.append(99)
    after = mask(attack)
    assert after.scada_lost() == {12}
    assert set(after.scada) == set(full.scada) and set(after.pmu) == set(full.pmu)
