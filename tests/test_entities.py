import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import jointgrid
from jointgrid import entities as ent
from jointgrid.entities import EntityError, EntityId, parse_entity_id

FIXTURES = Path(jointgrid.__file__).resolve().parent / "fixtures"


def test_parse_gateway_of_substation_6():
    entity = parse_entity_id("C(1,2,6,6)")
    assert entity.kind == "comm"
    assert entity.indices == (1, 2, 6, 6)
    assert entity == ent.gateway(6)


def test_parse_battery():
    entity = parse_entity_id("PB(1)")
    assert entity.kind == "battery"
    assert entity == ent.battery(1)


def test_parse_pmu():
    entity = parse_entity_id("U(2)")
    assert entity.kind == "pmu"
    assert entity.indices == (2,)


def test_round_trip_text():
    for text in ["P(12)", "PB(3)", "BR(1,2)", "C(2,2,1,6)", "L(3,10)", "R(7)", "U(1)", "GS(4)", "GP(11)"]:
        assert str(parse_entity_id(text)) == text
        assert repr(parse_entity_id(text)) == f"parse_entity_id({text!r})"


def test_whitespace_tolerated():
    assert parse_entity_id(" C( 1 , 2 , 6 , 6 ) ") == ent.gateway(6)


def test_unknown_prefix():
    with pytest.raises(EntityError, match="unknown entity prefix"):
        parse_entity_id("Q(1)")
    with pytest.raises(EntityError, match="unknown entity kind: 'fuzzy'"):
        EntityId("fuzzy", (1,))


def test_malformed_index_count():
    with pytest.raises(EntityError, match="indices"):
        parse_entity_id("C(1,2,6)")
    with pytest.raises(EntityError, match="indices"):
        parse_entity_id("P(1,2)")


def test_malformed_text():
    # "P(\u0661\u0662)" spells 12 in Arabic-Indic digits: indices are ASCII.
    for text in ["C(1,2,6,6", "P()", "P(a)", "12", "", "P(\u0661\u0662)"]:
        with pytest.raises(EntityError):
            parse_entity_id(text)


def test_comm_type_and_subtype_ranges():
    with pytest.raises(EntityError, match="type must be"):
        EntityId("comm", (4, 1, 1, 1))
    with pytest.raises(EntityError, match="subtype"):
        EntityId("comm", (1, 8, 1, 1))
    with pytest.raises(EntityError, match="subtype"):
        EntityId("comm", (2, 3, 1, 1))


def test_link_family_range():
    with pytest.raises(EntityError, match="family"):
        EntityId("link", (7, 1))


def test_ring_link_orientation_normalized():
    assert ent.sonet_ring_link(6, 1) == parse_entity_id("C(2,2,1,6)")
    assert ent.dwdm_ring_link(5, 2) == parse_entity_id("C(3,2,2,5)")


def test_ordering_is_stable():
    ids = [ent.rtu(1), ent.bus(3), ent.gateway(2), ent.link(1, 4), ent.bus(1)]
    ordered = sorted(ids)
    assert ordered[0] == ent.bus(1)
    assert ordered[1] == ent.bus(3)
    assert ordered[-1] == ent.rtu(1)


def test_tuple_value_orders_by_kind_rank_then_indices():
    entity = ent.link(3, 10)
    assert entity == (4, (3, 10))
    assert hash(entity) == hash((4, (3, 10)))
    assert ent.battery(9) < parse_entity_id("BR(1,2)") < ent.gw_pmu(1)


def test_pickle_and_deepcopy_round_trip():
    for entity in [ent.bus(4), ent.gateway(6), ent.link(3, 10), ent.gw_pmu(2)]:
        for copied in (pickle.loads(pickle.dumps(entity)), copy.deepcopy(entity), copy.copy(entity)):
            assert type(copied) is EntityId
            assert copied == entity and hash(copied) == hash(entity)
            assert (copied.kind, copied.indices, str(copied)) == (entity.kind, entity.indices, str(entity))


def test_entity_hashes_do_not_depend_on_the_process():
    """Set iteration order, and with it every output that walks a set of
    entities, is the same under any string-hash seed."""
    script = (
        "from jointgrid.grid import load_grid\n"
        "from jointgrid.synthesis import build_joint_network\n"
        f"network = build_joint_network(load_grid({str(FIXTURES / 'ieee14.json')!r}))\n"
        "print(' '.join(map(str, frozenset(network.registry))))\n"
    )
    src = str(Path(jointgrid.__file__).resolve().parents[1])
    orders = {
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("0", "1")
    }
    assert len(orders) == 1
    assert len(orders.pop().split()) > 100
