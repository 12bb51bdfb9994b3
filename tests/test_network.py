import copy
import dataclasses
import re

import pytest

from oracle import free_entities, meta_payload, rule_of
from jointgrid import entities as ent
from jointgrid.cascade import FailureScenario, ScenarioError, data_availability, run_cascade
from jointgrid.entities import parse_entity_id
from jointgrid.idr import OP_MIN_AND, IdrRule, MIIM, Op
from jointgrid.network import (
    ROLE_PRIMARY_CC,
    Ring,
    RuleSet,
    validate,
)

ATTACK = FailureScenario.of([parse_entity_id(t) for t in ("P(12)", "C(1,1,6,6)", "C(1,2,6,6)")])


def test_generated_networks_validate(ieee14, ieee118):
    assert validate(ieee14) == []
    assert validate(ieee118) == []


def test_unknown_entity_in_rule_flagged(ieee14):
    broken = copy.deepcopy(ieee14)
    ghost = ent.bus(99)
    rule_set = broken.rule_sets[(MIIM, 1)]
    rules = (IdrRule(rule_set.rules[0].target, ghost),) + rule_set.rules[1:]
    broken.rule_sets[(MIIM, 1)] = dataclasses.replace(rule_set, rules=rules)
    problems = validate(broken)
    assert any("unknown entity P(99)" in p for p in problems)


def _with_literal(rule, entity):
    return IdrRule(rule.target, Op(OP_MIN_AND, (rule.body, entity)))


def _body_literal(rule_set):
    bad = _with_literal(rule_set.rules[0], ent.bus(99))
    return dataclasses.replace(rule_set, rules=(bad,) + rule_set.rules[1:]), ent.bus(99)


def _cascade_target(rule_set):
    extra = IdrRule(ent.rtu(99), ent.bus(1))
    return dataclasses.replace(rule_set, rules=rule_set.rules + (extra,)), ent.rtu(99)


def _duplicate_target(rule_set):
    first = rule_set.rules[0]
    return dataclasses.replace(rule_set, rules=rule_set.rules + (first,)), first.target


def _availability_literal(rule_set):
    availability = [
        _with_literal(rule, ent.bus(99)) if rule.target == ent.gw_scada(6) else rule
        for rule in rule_set.availability
    ]
    return dataclasses.replace(rule_set, availability=availability), ent.bus(99)


def _duplicate_data_path(rule_set):
    scada = next(rule for rule in rule_set.availability if rule.target == ent.gw_scada(6))
    return dataclasses.replace(rule_set, availability=rule_set.availability + (scada,)), scada.target


def _data_path_to(target):
    """A breaker adding an availability rule on ``target``, which is not a
    data path of a known substation."""

    def breaker(rule_set):
        extra = IdrRule(target, ent.bus(1))
        return dataclasses.replace(rule_set, availability=rule_set.availability + (extra,)), target

    return breaker


@pytest.mark.parametrize(
    "breaker, wording",
    [
        (_body_literal, "references unknown entity {}"),
        (_cascade_target, "rule target {} not registered"),
        (_duplicate_target, "duplicate rule for {}"),
        (_availability_literal, "references unknown entity {}"),
        (_duplicate_data_path, "duplicate rule for {}"),
        (_data_path_to(ent.gw_pmu(99)), "rule target {} is not a data path of a known substation"),
        (_data_path_to(ent.rtu(6)), "rule target {} is not a data path of a known substation"),
    ],
    ids=[
        "body_literal",
        "cascade_target",
        "duplicate_target",
        "availability_literal",
        "duplicate_data_path",
        "unknown_substation_path",
        "entity_as_data_path",
    ],
)
def test_validate_and_compilers_share_one_reference_check(ieee14, breaker, wording):
    """A rule set naming an entity it may not is reported by ``validate``
    and rejected by the cascade compilers, both naming the entity in the
    same words: a data-path rule's target outside the data paths is not a
    data path, even where it is registered."""
    rule_set, entity = breaker(ieee14.rule_set(MIIM, 1))
    broken = dataclasses.replace(ieee14, rule_sets={**ieee14.rule_sets, (MIIM, 1): rule_set})
    problems = validate(broken)
    assert problems and all(str(entity) in p for p in problems), problems
    with pytest.raises(ScenarioError, match=re.escape(str(entity))) as refused:
        run_cascade(broken, rule_set, FailureScenario.of([]))
    expected = wording.format(entity)
    assert any(p.endswith(expected) for p in problems), problems
    assert expected in str(refused.value)


def test_missing_availability_rules_named(ieee14):
    """A rule set with no availability rules for a substation is reported by
    ``validate`` and refused by the cascade engine, both naming it."""
    rule_set = ieee14.rule_set(MIIM, 1)
    availability = [rule for rule in rule_set.availability if rule.target.indices != (6,)]
    rule_set = dataclasses.replace(rule_set, availability=availability)
    broken = dataclasses.replace(ieee14, rule_sets={**ieee14.rule_sets, (MIIM, 1): rule_set})
    assert validate(broken) == ["miim/case1: no availability rules for substation 6"]
    message = "availability rules: no availability rules for substation 6"
    with pytest.raises(ScenarioError, match=f"^{message}$"):
        run_cascade(broken, rule_set, FailureScenario.of([]))


def _drop_substation(rules, sub_id):
    """Remove substation ``sub_id``'s data-path rules from the list ``rules``."""
    rules[:] = [rule for rule in rules if rule.target.indices != (sub_id,)]


def test_availability_rules_are_read_only(ieee14):
    """Availability rules cannot change under the programs compiled from
    them: the tuple refuses edits, even after a cascade has compiled it,
    and the list a rule set was built from is copied."""
    source = ieee14.rule_set(MIIM, 1)
    _mask(ieee14, source, ATTACK)
    with pytest.raises(TypeError):
        del source.availability[0]
    given = list(source.availability)
    rule_set = RuleSet(MIIM, 1, source.rules, given)
    before = _mask(ieee14, rule_set, ATTACK)
    with pytest.raises(TypeError):
        rule_set.availability[0] = source.availability[1]
    _drop_substation(given, 6)
    assert rule_set.availability == source.availability
    assert validate(dataclasses.replace(ieee14, rule_sets={**ieee14.rule_sets, (MIIM, 1): rule_set})) == []
    assert _mask(ieee14, rule_set, ATTACK) == before


def test_a_list_given_to_a_rule_set_is_copied(ieee14):
    """A caller's list of availability rules is not the rule set's own: the
    rule set copies it into a tuple, so editing the list after a cascade on
    a network holding the rule set changes neither the rule set nor its
    masks."""
    source = ieee14.rule_set(MIIM, 1)
    given = list(source.availability)
    rule_set = RuleSet(MIIM, 1, source.rules, given)
    network = dataclasses.replace(ieee14, rule_sets={**ieee14.rule_sets, (MIIM, 1): rule_set})
    before = _mask(network, rule_set, ATTACK)
    assert not before.scada[12]
    _drop_substation(given, 6)
    assert validate(network) == []
    assert _mask(network, rule_set, ATTACK) == before
    assert rule_set.availability == source.availability


def test_unknown_model_and_substation_refused(ieee14):
    source = ieee14.rule_set(MIIM, 1)
    with pytest.raises(ValueError, match="unknown model 'fuzzy'"):
        RuleSet("fuzzy", 1, source.rules, source.availability)
    with pytest.raises(KeyError, match="unknown substation: 99"):
        ieee14.substation(99)


def test_deepcopy_shares_the_immutable_rule_sets(ieee14):
    """A deep copy of a network is a new network over the very same rule
    sets, and cascades as the original does."""
    copied = copy.deepcopy(ieee14)
    assert copied.registry is not ieee14.registry and copied.slots is not ieee14.slots
    assert all(copied.rule_sets[key] is rule_set for key, rule_set in ieee14.rule_sets.items())
    assert validate(copied) == []
    for rule_set in ieee14.rule_sets.values():
        assert _mask(copied, rule_set, ATTACK) == _mask(ieee14, rule_set, ATTACK)


def _mask(network, rule_set, scenario):
    trace = run_cascade(network, rule_set, scenario)
    return data_availability(trace.final_state(), network, rule_set)


def test_duplicate_primary_cc_flagged(ieee14):
    broken = copy.deepcopy(ieee14)
    broken.substation(3).role = ROLE_PRIMARY_CC
    problems = validate(broken)
    assert any("control-center cardinality" in p for p in problems)


def test_missing_equipment_flagged(ieee14):
    broken = copy.deepcopy(ieee14)
    del broken.registry[ent.battery(5)]
    problems = validate(broken)
    assert any("substation 5: missing battery" in p for p in problems)


def test_bus_in_two_substations_flagged(ieee14):
    broken = copy.deepcopy(ieee14)
    broken.substation(3).buses.append(12)
    problems = validate(broken)
    assert any("bus 12" in p and "exactly one substation" in p for p in problems)


def test_broken_ring_flagged(ieee14):
    broken = copy.deepcopy(ieee14)
    broken.sadm_ring = Ring(
        "sadm", broken.sadm_ring.hosts, broken.sadm_ring.edges[:-1]
    )
    problems = validate(broken)
    assert any("sadm ring" in p for p in problems)


def test_split_ring_flagged(ieee14):
    broken = copy.deepcopy(ieee14)
    # Two triangles instead of one hexagon: degrees check out, cycle does not.
    broken.sadm_ring = Ring(
        "sadm",
        broken.sadm_ring.hosts,
        [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)],
    )
    problems = validate(broken)
    assert any("multiple cycles" in p for p in problems)


def _empty_substation(network):
    network.substation(6).buses.clear()


def _foreign_bus(network):
    network.substation(3).buses.append(99)


def _pmu_flag_without_pmus(network):
    network.substation(6).has_pmu = True


def _pmus_without_flag(network):
    network.substation(4).has_pmu = False


def _ring_link_to_unknown_node(network):
    network.oadm_ring = Ring("oadm", network.oadm_ring.hosts, network.oadm_ring.edges + [(1, 9)])


@pytest.mark.parametrize(
    "edit, problem",
    [
        (_empty_substation, "substation 6: empty bus list"),
        (_foreign_bus, "substation 3: unknown bus 99"),
        (_pmu_flag_without_pmus, "substation 6: flagged for PMU but none registered"),
        (_pmus_without_flag, "substation 4: PMUs registered without placement flag"),
        (_ring_link_to_unknown_node, "oadm ring: link (1,9) references unknown node"),
    ],
    ids=["empty_substation", "foreign_bus", "pmu_flag_without_pmus", "pmus_without_flag",
         "ring_link_to_unknown_node"],
)
def test_structural_fault_named(ieee14, edit, problem):
    """Each structural fault is reported naming its substation or ring."""
    broken = copy.deepcopy(ieee14)
    edit(broken)
    assert problem in validate(broken)


def test_missing_rtu_flagged(ieee14):
    broken = copy.deepcopy(ieee14)
    broken.rtus[7] = []
    problems = validate(broken)
    assert any("substation 7: no RTU" in p for p in problems)


def test_power_feed_shape_of_first_node_rule(ieee14):
    # The generated power alternatives for the first SONET node span ten
    # buses and their ten feed links.
    rule = rule_of(ieee14.rule_set(MIIM, 1), ent.sadm(1))
    power = rule.body.children[2]
    entities = free_entities(power)
    buses = {e for e in entities if e.kind == "bus"}
    links = {e for e in entities if e.kind == "link"}
    assert len(buses) == 10
    assert len(links) == 10
    assert {e.indices[0] for e in links} == {3}
    assert buses == {
        ent.bus(b) for b in (4, 5, 6, 7, 9, 10, 11, 12, 13, 14)
    }


def test_registry_metadata(ieee14):
    meta = ieee14.registry[parse_entity_id("C(1,4,1,6)")]
    assert meta.substation == 6
    assert meta_payload(meta) == {"substation": 6, "endpoints": ["C(1,2,6,6)", "C(2,1,1,0)"]}
    assert ieee14.registry[ent.bus(12)].substation == 6
    assert ieee14.registry[ent.sadm(6)].substation == 10
