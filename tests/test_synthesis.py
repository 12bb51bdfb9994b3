import heapq
import json
import random

import numpy as np
import pytest

from idr_reader import parse_idr_file
from oracle import (
    columns,
    evaluate,
    format_idr_file,
    free_entities,
    paths_of,
    read,
    registry_payload,
    rule_of,
    translate_to_iim,
)
from jointgrid import entities as ent
from jointgrid.cli import registry_text
from jointgrid.entities import EntityId, parse_entity_id
from jointgrid.grid import Branch, Bus, Grid, SynthesisConfig
from jointgrid.idr import (
    BINARY,
    IIM,
    MIIM,
    Op,
    compile_expr,
    format_idr,
)
from jointgrid.network import CASES, MODELS, validate
from jointgrid.synthesis import (
    SynthesisError,
    _id_tables,
    all_pairs_shortest,
    build_joint_network,
    generate_rules,
    group_substations,
    home_gateways,
    place_ring_nodes,
    ring_hosts,
    select_control_centers,
    substation_adjacency,
)

GOLDEN_SADM1 = (
    "C(2,1,1,0) <- "
    "((C(2,1,2,0) & C(2,2,1,2)) | (C(2,1,6,0) & C(2,2,1,6)) | "
    "(C(1,2,2,2) & C(1,4,1,2)) | (C(1,2,1,1) & C(1,4,1,1))) & "
    "(C(1,4,1,2) ^ C(1,4,1,6) ^ C(1,4,1,7) ^ C(1,4,1,8) ^ C(1,4,1,9) ^ C(1,4,1,11)) & "
    "((P(4) & L(3,1)) | (P(7) & L(3,2)) | (P(9) & L(3,3)) | (P(5) & L(3,4)) | "
    "(P(6) & L(3,5)) | (P(12) & L(3,6)) | (P(13) & L(3,7)) | (P(14) & L(3,8)) | "
    "(P(11) & L(3,9)) | (P(10) & L(3,10)))"
)


def simple_grid(buses, branches):
    return Grid(
        "test",
        [Bus(b, generator=False) for b in buses],
        [Branch(f, t, 0.01, 0.1, 0.0, length, transformer) for f, t, length, transformer in branches],
    )


# --- grouping ----------------------------------------------------------------


def test_fixture_substation_map(ieee14):
    by_id = {s.id: s.buses for s in ieee14.substations}
    assert by_id[1] == [4, 7, 9]
    assert by_id[2] == [5, 6]
    assert by_id[6] == [12]
    assert len(ieee14.substations) == 11


def test_heuristic_no_transformers_gives_singletons():
    grid = simple_grid([1, 2, 3], [(1, 2, 5.0, False), (2, 3, 5.0, False)])
    subs = group_substations(grid, SynthesisConfig())
    assert [(s.id, s.buses) for s in subs] == [(1, [1]), (2, [2]), (3, [3])]


def test_heuristic_transformer_merges():
    grid = simple_grid([1, 2], [(1, 2, 1.0, True)])
    subs = group_substations(grid, SynthesisConfig())
    assert [(s.id, s.buses) for s in subs] == [(1, [1, 2])]


def test_heuristic_matches_14_bus_fixture_grouping(ieee14_grid):
    # The explicit fixture map renumbers but must group identically to the
    # transformer heuristic.
    subs = group_substations(ieee14_grid, SynthesisConfig(substation_map=None))
    heuristic_groups = sorted(tuple(s.buses) for s in subs)
    fixture_groups = sorted(
        tuple(buses)
        for buses in (
            [4, 7, 9], [5, 6], [1], [2], [3], [12], [13], [14], [11], [8], [10],
        )
    )
    assert heuristic_groups == fixture_groups


def test_unknown_bus_in_map_rejected(ieee14_grid):
    config = SynthesisConfig(substation_map={99: 1})
    with pytest.raises(SynthesisError, match="unknown bus 99"):
        group_substations(ieee14_grid, config)


def test_grouping_reads_bus_ids_once(ieee14_grid, ieee118_grid, monkeypatch):
    """``Grid.bus_ids`` sorts every bus on each read; grouping a grid, by its
    substation map or by the transformer heuristic, reads it once."""
    reads = []
    sort_buses = Grid.bus_ids.fget
    monkeypatch.setattr(Grid, "bus_ids", property(lambda grid: reads.append(1) or sort_buses(grid)))
    for grid in (ieee14_grid, ieee118_grid):
        for config in (grid.config, SynthesisConfig(substation_map=None)):
            reads.clear()
            group_substations(grid, config)
            assert len(reads) == 1, (len(grid.buses), config.substation_map is None)


def test_generating_role_from_generator_buses(ieee14):
    roles = {s.id: s.role for s in ieee14.substations}
    assert roles[3] == "generating"
    assert roles[10] == "generating"
    assert roles[6] == "plain"
    assert roles[1] == "backup_cc"
    assert roles[2] == "primary_cc"


# --- distances ----------------------------------------------------------------


def dijkstra_all_pairs(adjacency, nodes):
    dist = {}
    for source in nodes:
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
        for target in nodes:
            dist[(source, target)] = best.get(target, float("inf"))
    return dist


def test_single_edge_distance():
    grid = simple_grid([1, 2], [(1, 2, 5.0, False)])
    subs = group_substations(grid, SynthesisConfig())
    dm = all_pairs_shortest(grid, subs)
    assert dm.dist(1, 2) == 5.0
    assert dm.dist(1, 1) == 0.0


def test_triangle_relaxation():
    grid = simple_grid([1, 2, 3], [(1, 2, 1.0, False), (2, 3, 1.0, False), (1, 3, 3.0, False)])
    subs = group_substations(grid, SynthesisConfig())
    dm = all_pairs_shortest(grid, subs)
    assert dm.dist(1, 3) == 2.0


def test_parallel_branches_use_minimum_length():
    grid = simple_grid([1, 2], [(1, 2, 9.0, False), (1, 2, 4.0, False)])
    subs = group_substations(grid, SynthesisConfig())
    dm = all_pairs_shortest(grid, subs)
    assert dm.dist(1, 2) == 4.0


def test_disconnected_graph_lists_pairs():
    grid = simple_grid([1, 2, 3, 4], [(1, 2, 1.0, False), (3, 4, 1.0, False)])
    subs = group_substations(grid, SynthesisConfig())
    with pytest.raises(SynthesisError, match="unreachable pairs"):
        all_pairs_shortest(grid, subs)


def random_connected_grid(rng, n_nodes):
    branches = []
    for node in range(2, n_nodes + 1):
        other = rng.randint(1, node - 1)
        branches.append((other, node, rng.randint(1, 40) / 4.0, False))
    extra = rng.randint(0, n_nodes)
    for _ in range(extra):
        a, b = rng.sample(range(1, n_nodes + 1), 2)
        branches.append((a, b, rng.randint(1, 40) / 4.0, False))
    return simple_grid(list(range(1, n_nodes + 1)), branches)


def test_distance_matrix_symmetric_with_triangle_inequality(ieee14_grid, ieee14):
    dm = all_pairs_shortest(ieee14_grid, ieee14.substations)
    ids = dm.sub_ids
    for a in ids:
        assert dm.dist(a, a) == 0.0
        for b in ids:
            assert dm.dist(a, b) == dm.dist(b, a)
            for c in ids:
                assert dm.dist(a, c) <= dm.dist(a, b) + dm.dist(b, c) + 1e-9


def test_floyd_warshall_matches_dijkstra_20_nodes():
    rng = random.Random(7)
    for _ in range(10):
        grid = random_connected_grid(rng, 20)
        subs = group_substations(grid, SynthesisConfig())
        adjacency = substation_adjacency(grid, subs)
        dm = all_pairs_shortest(grid, subs)
        oracle = dijkstra_all_pairs(adjacency, [s.id for s in subs])
        for a in dm.sub_ids:
            for b in dm.sub_ids:
                assert dm.dist(a, b) == oracle[(a, b)]


# --- control centers -------------------------------------------------------------


def test_fixture_control_centers(ieee14):
    assert ieee14.control_centers == (2, 1)


def test_two_node_tie_break():
    grid = simple_grid([1, 2], [(1, 2, 5.0, False)])
    subs = group_substations(grid, SynthesisConfig())
    dm = all_pairs_shortest(grid, subs)
    adjacency = substation_adjacency(grid, subs)
    assert select_control_centers(dm, subs, adjacency) == (1, 2)


def test_star_hub_is_primary():
    grid = simple_grid(
        [1, 2, 3, 4, 5],
        [(3, 1, 2.0, False), (3, 2, 2.0, False), (3, 4, 2.0, False), (3, 5, 2.0, False)],
    )
    subs = group_substations(grid, SynthesisConfig())
    dm = all_pairs_shortest(grid, subs)
    adjacency = substation_adjacency(grid, subs)
    primary, backup = select_control_centers(dm, subs, adjacency)
    assert primary == 3


def test_too_few_substations():
    grid = simple_grid([1, 2], [(1, 2, 1.0, True)])
    subs = group_substations(grid, SynthesisConfig())
    dm = all_pairs_shortest(grid, subs)
    with pytest.raises(SynthesisError, match="at least two"):
        select_control_centers(dm, subs, None)


def test_override_wins():
    grid = simple_grid([1, 2, 3], [(1, 2, 1.0, False), (2, 3, 1.0, False)])
    subs = group_substations(grid, SynthesisConfig())
    dm = all_pairs_shortest(grid, subs)
    assert select_control_centers(dm, subs, None, override=(3, 1)) == (3, 1)
    with pytest.raises(SynthesisError, match="unknown substations"):
        select_control_centers(dm, subs, None, override=(9, 1))


# --- ring placement -----------------------------------------------------------


def test_fixture_ring_placements(ieee14):
    assert ieee14.sadm_ring.hosts == [1, 2, 3, 4, 5, 10]
    assert ieee14.oadm_ring.hosts == [1, 2, 4, 7, 11]
    assert (1, 2) in ieee14.sadm_ring.edges
    assert (1, 6) in ieee14.sadm_ring.edges
    assert ieee14.sadm_ring.neighbors(1) == [2, 6]


def test_all_generating_places_sadm_everywhere():
    grid = Grid(
        "gen",
        [Bus(i, generator=True) for i in range(1, 5)],
        [Branch(i, i + 1, 0.01, 0.1, 0.0, 1.0, False) for i in range(1, 4)],
    )
    subs = group_substations(grid, SynthesisConfig())
    dm = all_pairs_shortest(grid, subs)
    primary, backup = select_control_centers(dm, subs, substation_adjacency(grid, subs))
    for sub in subs:
        if sub.id == primary:
            sub.role = "primary_cc"
        elif sub.id == backup:
            sub.role = "backup_cc"
    assert ring_hosts(subs, "sadm") == [1, 2, 3, 4]


def test_degenerate_ring_rejected():
    grid = simple_grid([1, 2, 3], [(1, 2, 1.0, False), (2, 3, 1.0, False)])
    subs = group_substations(grid, SynthesisConfig())
    dm = all_pairs_shortest(grid, subs)
    subs[0].role = "primary_cc"
    subs[1].role = "backup_cc"
    with pytest.raises(SynthesisError, match="degenerate"):
        place_ring_nodes(subs, "sadm", dm, 1)


def test_ring_edges_form_cycle(ieee14):
    for ring in (ieee14.sadm_ring, ieee14.oadm_ring):
        degree = {}
        for a, b in ring.edges:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        assert all(d == 2 for d in degree.values())
        assert len(ring.edges) == ring.node_count


# --- homing --------------------------------------------------------------------


def test_fixture_sadm_homing(ieee14):
    homed_to_1 = sorted(s for s, n in ieee14.sadm_homing.items() if n == 1)
    assert homed_to_1 == [6, 7, 8, 9, 11]
    assert ieee14.sadm_homing[3] == 3
    assert ieee14.sadm_homing[10] == 6
    assert 1 not in ieee14.sadm_homing and 2 not in ieee14.sadm_homing


def test_fixture_sadm1_sources_match_narrative(ieee14):
    # Data sources of the first SONET node: homed gateways plus the primary
    # control center's gateway.
    rule = rule_of(ieee14.rule_set(MIIM, 1), ent.sadm(1))
    data_feed = rule.body.children[1]
    channels = sorted(e.indices[3] for e in free_entities(data_feed))
    assert channels == [2, 6, 7, 8, 9, 11]


def test_equidistant_tie_prefers_lower_node():
    grid = simple_grid(
        [1, 2, 3],
        [(1, 3, 5.0, False), (2, 3, 5.0, False), (1, 2, 20.0, False)],
    )
    subs = group_substations(grid, SynthesisConfig())
    dm = all_pairs_shortest(grid, subs)
    from jointgrid.network import Ring

    ring = Ring("sadm", [1, 2], [(1, 2)])
    homing = home_gateways(subs, ring, dm)
    assert homing[3] == 1


def test_homing_override_validated():
    from jointgrid.network import Ring

    grid = simple_grid([1, 2, 3], [(1, 2, 1.0, False), (2, 3, 1.0, False)])
    subs = group_substations(grid, SynthesisConfig())
    dm = all_pairs_shortest(grid, subs)
    ring = Ring("oadm", [1, 2], [(1, 2)])
    with pytest.raises(SynthesisError, match="hosts no oadm node"):
        home_gateways(subs, ring, dm, override={3: 3})
    with pytest.raises(SynthesisError, match="oadm_homing: substation 99 does not exist"):
        home_gateways(subs, ring, dm, override={3: 1, 99: 1})
    subs[1].role = "backup_cc"  # its gateway connects to every node: a key for it would be dropped
    with pytest.raises(SynthesisError, match="oadm_homing: substation 2 is a control center"):
        home_gateways(subs, ring, dm, override={2: 1, 3: 1})


def test_co_located_gateway_homes_to_own_node(ieee14):
    # Substations hosting a SONET node keep their own gateway on it.
    for sub_id in (3, 4, 5):
        node = ieee14.sadm_homing[sub_id]
        assert ieee14.sadm_ring.host_of(node) == sub_id


def _key_home_gateways(substations, ring, dm):
    """Reference homing: the nearest host by ``dist`` calls, ties to the lowest node id."""
    return {
        sub.id: min(
            range(1, ring.node_count + 1), key=lambda n: (dm.dist(sub.id, ring.host_of(n)), n)
        )
        for sub in substations
        if not sub.is_control_center
    }


def _key_place_ring_nodes(substations, kind, dm, primary_cc):
    """Reference tour: the nearest remaining host by ``dist`` calls, ties to
    the lowest substation id."""
    from jointgrid.network import Ring

    hosts = ring_hosts(substations, kind)
    node_of = {host: i + 1 for i, host in enumerate(hosts)}
    tour = [primary_cc]
    remaining = [h for h in hosts if h != primary_cc]
    while remaining:
        current = tour[-1]
        nxt = min(remaining, key=lambda h: (dm.dist(current, h), h))
        tour.append(nxt)
        remaining.remove(nxt)
    edges = {tuple(sorted((node_of[a], node_of[b]))) for a, b in zip(tour, tour[1:] + tour[:1])}
    return Ring(kind, hosts, sorted(edges))


def _key_control_centers(dm, substations, adjacency):
    """Reference ranking: total distance by ``dist`` calls, then degree, then id."""
    sub_ids = {sub.id for sub in substations}
    degree = {sub: len(adjacency.get(sub, {})) for sub in sub_ids}
    totals = {sub: sum(dm.dist(sub, other) for other in dm.sub_ids) for sub in sub_ids}
    ranked = sorted(sub_ids, key=lambda sub: (totals[sub], -degree[sub], sub))
    return (ranked[0], ranked[1])


def test_placement_matches_key_based_definitions_on_random_ties():
    """Row-based control-center choice and homing equal the key-based
    definitions on distance matrices drawn from a few values, so that totals
    and nearest hosts tie often."""
    from jointgrid.network import Ring, Substation
    from jointgrid.synthesis import DistanceMatrix

    rng = random.Random(11)
    ties = 0
    for _ in range(300):
        n = rng.randint(2, 12)
        sub_ids = sorted(rng.sample(range(1, 40), n))
        if rng.random() < 0.5:
            rng.shuffle(sub_ids)
        values = rng.choice([[1.0, 2.0], [0.1, 0.2, 0.7], [1.5, 2.5, 4.0, 10.0]])
        matrix = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                matrix[i, j] = matrix[j, i] = rng.choice(values)
        dm = DistanceMatrix(sub_ids, matrix)
        adjacency = {a: {b: 1.0 for b in sub_ids if b != a and rng.random() < 0.3} for a in sub_ids}
        subs = [Substation(sub_id, [sub_id]) for sub_id in sub_ids]
        assert select_control_centers(dm, subs, adjacency) == _key_control_centers(dm, subs, adjacency)
        primary, backup = rng.sample(subs, 2)
        primary.role, backup.role = "primary_cc", "backup_cc"
        hosts = sorted(rng.sample(sub_ids, rng.randint(1, n)))
        ring = Ring("sadm", hosts, [])
        homing = home_gateways(subs, ring, dm)
        assert homing == _key_home_gateways(subs, ring, dm)
        for sub in homing:
            row = [dm.dist(sub, host) for host in hosts]
            ties += row.count(min(row)) > 1
    assert ties > 100


def test_ring_tour_matches_key_based_definition_on_random_ties():
    """The row-based nearest-neighbour tour equals the key-based one on
    distance matrices drawn from a few values, so that the nearest
    remaining hosts tie often."""
    from jointgrid.network import Substation
    from jointgrid.synthesis import DistanceMatrix

    rng = random.Random(13)
    ties = 0
    for _ in range(300):
        n = rng.randint(3, 14)
        sub_ids = sorted(rng.sample(range(1, 40), n))
        if rng.random() < 0.5:
            rng.shuffle(sub_ids)
        values = rng.choice([[1.0, 2.0], [0.1, 0.2, 0.7], [1.5, 2.5, 4.0, 10.0]])
        matrix = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                matrix[i, j] = matrix[j, i] = rng.choice(values)
        dm = DistanceMatrix(sub_ids, matrix)
        subs = [Substation(sub_id, [sub_id]) for sub_id in sub_ids]
        primary, backup = rng.sample(subs, 2)
        primary.role, backup.role = "primary_cc", "backup_cc"
        for sub in subs:
            if not sub.is_control_center:
                sub.role = rng.choice(["plain", "generating"])
                sub.has_pmu = rng.random() < 0.5
        for kind in ("sadm", "oadm"):
            hosts = ring_hosts(subs, kind)
            if len(hosts) < 3:
                continue
            ring = place_ring_nodes(subs, kind, dm, primary.id)
            assert ring == _key_place_ring_nodes(subs, kind, dm, primary.id)
            row = [dm.dist(primary.id, host) for host in hosts if host != primary.id]
            ties += row.count(min(row)) > 1
    assert ties > 100


@pytest.mark.parametrize("network_name", ["ieee14", "ieee118"])
def test_fixture_placement_matches_key_based_definitions(request, network_name):
    network = request.getfixturevalue(network_name)
    subs = network.substations
    dm = all_pairs_shortest(network.grid, subs)
    adjacency = substation_adjacency(network.grid, subs)
    assert select_control_centers(dm, subs, adjacency) == _key_control_centers(dm, subs, adjacency)
    for ring in (network.sadm_ring, network.oadm_ring):
        assert home_gateways(subs, ring, dm) == _key_home_gateways(subs, ring, dm)
        assert ring == _key_place_ring_nodes(subs, ring.kind, dm, network.primary_cc)


# --- rule generation -------------------------------------------------------------


def test_golden_sadm1_rule(ieee14):
    rule = rule_of(ieee14.rule_set(MIIM, 1), ent.sadm(1))
    assert format_idr(rule) == GOLDEN_SADM1


def test_rule_targets_cover_dependent_entities(ieee14):
    targets = {rule.target for rule in ieee14.rule_set(MIIM, 1).rules}
    for sub in ieee14.substations:
        assert ent.server(sub.id) in targets
        assert ent.gateway(sub.id) in targets
    assert ent.sadm(1) in targets and ent.oadm(5) in targets
    assert parse_entity_id("C(1,4,1,6)") in targets
    assert parse_entity_id("C(1,5,1,6)") in targets
    for bus in ieee14.grid.bus_ids:
        assert ent.bus(bus) not in targets
    assert ent.battery(1) not in targets
    assert ent.lan(1) not in targets


def test_rule_count_matches_structure(ieee14):
    rule_set = ieee14.rule_set(MIIM, 1)
    n_subs = len(ieee14.substations)
    n_channels = sum(
        1 for e in ieee14.registry if e.kind == "comm" and e.indices[:2] in ((1, 4), (1, 5))
    )
    n_rtus = sum(len(v) for v in ieee14.rtus.values())
    n_pmus = sum(len(v) for v in ieee14.pmus.values())
    n_ring_nodes = ieee14.sadm_ring.node_count + ieee14.oadm_ring.node_count
    expected = 2 * n_subs + n_channels + n_rtus + n_pmus + n_ring_nodes
    assert len(rule_set.rules) == expected


def test_all_operational_fixpoint(ieee14):
    full_state = {e: 2 for e in ieee14.registry}
    for rule in ieee14.rule_set(MIIM, 1).rules:
        assert evaluate(rule.body, full_state) == 2, format_idr(rule)
    on_state = {e: 1 for e in ieee14.registry}
    for rule in read(ieee14.rule_set(IIM, 1)).rules:
        assert evaluate(rule.body, on_state) == 1, format_idr(rule)


def test_cases_share_cascade_rules_and_differ_in_scada_availability(ieee14):
    for model in (MIIM, IIM):
        case1 = ieee14.rule_set(model, 1)
        case2 = ieee14.rule_set(model, 2)
        assert case1.rules is case2.rules
        for sub in ieee14.substations:
            (scada1, pmu1), (scada2, pmu2) = paths_of(case1, sub.id), paths_of(case2, sub.id)
            assert scada1 != scada2
            assert pmu1 is pmu2


def test_case2_adds_exactly_one_fallback_branch(ieee14):
    from jointgrid.idr import Op, OP_MAX_OR

    case1 = paths_of(ieee14.rule_set(MIIM, 1), 6)[0]
    case2 = paths_of(ieee14.rule_set(MIIM, 2), 6)[0]
    reach1 = case1.body.children[1].children[1]
    reach2 = case2.body.children[1].children[1]
    assert isinstance(reach2, Op) and reach2.op == OP_MAX_OR
    assert reach2.children[0] == reach1
    # The extra branch is the DWDM-path term; the rest of the rule is identical.
    assert case1.body.children[0] == case2.body.children[0]
    assert case1.body.children[2] == case2.body.children[2]


@pytest.mark.parametrize("case", [1, 2])
@pytest.mark.parametrize("network_name", ["ieee14", "ieee118"])
def test_iim_rules_are_translations(request, network_name, case):
    """Each IIM rule set holds its case's MIIM rules and availability
    mapping, the very objects, and its compiled reading of each rule,
    cascade and availability, binds the slots of the literals of the rule's
    translation, left to right: the binary reading keeps the tree."""
    network = request.getfixturevalue(network_name)
    miim, iim = network.rule_set(MIIM, case), network.rule_set(IIM, case)
    assert iim.rules is miim.rules
    assert iim.availability is miim.availability
    assert [rule.target for rule in miim.availability] == [rule.target for rule in iim.availability]
    for rule in (*miim.rules, *miim.availability):
        reading = compile_expr(rule.body, network.slots, BINARY)
        leaves = _leaves(translate_to_iim(rule).body)
        assert reading.__defaults__ == tuple(network.slots[entity] for entity in leaves), format_idr(rule)


def _leaves(expr):
    """Every literal of a tree, left to right, repeats included."""
    if isinstance(expr, EntityId):
        return [expr]
    return [entity for child in expr.children for entity in _leaves(child)]


def _binary_reading_mismatches(network, arrays):
    """The rules of ``network``'s IIM rule sets, cascade and availability,
    whose compiled binary reading differs at some state of ``arrays`` from
    ``evaluate`` on their ``translate_to_iim`` tree.  A body shared by rules
    or rule sets is checked once."""
    rules = {
        id(rule.body): rule
        for case in CASES
        for rule_set in [network.rule_set(IIM, case)]
        for rule in (*rule_set.rules, *rule_set.availability)
    }
    checks = [
        (rule, compile_expr(rule.body, network.slots, BINARY), translate_to_iim(rule).body)
        for rule in rules.values()
    ]
    state = columns(network.entity_ids(), arrays)
    return sorted(
        {
            format_idr(rule)
            for rule, fn, binary in checks
            if [fn(array) for array in arrays] != evaluate(binary, state).tolist()
        }
    )


@pytest.mark.parametrize("network_name, seed", [("ieee14", 31), ("ieee118", 32)])
def test_binary_reading_matches_translated_rules(request, network_name, seed):
    """Oracle for reading the ternary rules as binary: every IIM cascade and
    availability rule, compiled under IIM, evaluates as the oracle's
    ``evaluate`` does on its ``translate_to_iim`` tree, at 200 random binary
    states and, on 14 buses, at the binary fixpoint of every single failure
    in both cases."""
    from jointgrid.cascade import FailureScenario, run_cascade

    network = request.getfixturevalue(network_name)
    rng = random.Random(seed)
    size = len(network.entity_ids())
    arrays = [rng.choices((0, 1), k=size) for _ in range(200)]
    if network_name == "ieee14":
        fixpoints = {
            tuple(run_cascade(network, network.rule_set(IIM, case), FailureScenario.of([entity])).fixpoint)
            for case in CASES
            for entity in network.entity_ids()
        }
        assert len(fixpoints) > 1
        arrays += [list(fixpoint) for fixpoint in sorted(fixpoints)]
    assert _binary_reading_mismatches(network, arrays) == []


def test_build_makes_each_entity_id_once(ieee118_grid, monkeypatch):
    """A 118-bus build constructs each entity id once, registered entities
    and data paths alike, and formats only the network's ``names``."""

    counts = {"new": 0, "str": 0}
    new, text = EntityId.__new__, EntityId.__str__

    def counting_new(cls, kind, indices):
        counts["new"] += 1
        return new(cls, kind, indices)

    def counting_str(entity):
        counts["str"] += 1
        return text(entity)

    monkeypatch.setattr(EntityId, "__new__", counting_new)
    monkeypatch.setattr(EntityId, "__str__", counting_str)
    network = build_joint_network(ieee118_grid)
    monkeypatch.undo()
    paths = {rule.target for rule_set in network.rule_sets.values() for rule in rule_set.availability}
    assert (len(network.registry), len(paths)) == (2392, 139)
    assert counts["new"] <= len(network.registry) + len(paths)
    assert counts["str"] == len(network.registry)


def test_build_constructs_no_binary_rule(ieee118_grid, monkeypatch):
    """A 118-bus build makes each rule its rule sets hold once, as a ternary
    tree, and no other rule: the IIM rule sets read the MIIM rules."""
    from jointgrid.idr import IdrRule

    built = []
    post_init = IdrRule.__post_init__

    def counting(rule):
        built.append(rule)
        post_init(rule)

    monkeypatch.setattr(IdrRule, "__post_init__", counting)
    network = build_joint_network(ieee118_grid)
    held = {id(rule) for rs in network.rule_sets.values() for rule in (*rs.rules, *rs.availability)}
    assert built and len({id(rule) for rule in built}) == len(built) == len(held)
    assert {id(rule) for rule in built} == held


@pytest.mark.parametrize("network_name", ["ieee14", "ieee118"])
def test_rules_of_a_substation_share_their_terms(request, network_name):
    """A gateway's data-path rules hold its cascade rule's own head and
    power terms, and the RTU and PMU rules of a substation share one body.
    Each IIM rule set holds its case's MIIM rules tuple and availability
    mapping, the very objects, so the rules the IIM reads share exactly the
    terms the MIIM rules do."""
    network = request.getfixturevalue(network_name)
    for case in CASES:
        miim, iim = network.rule_set(MIIM, case), network.rule_set(IIM, case)
        assert iim.rules is miim.rules
        assert iim.availability is miim.availability
    rules = {rule.target: rule for rule in network.rule_set(MIIM, 1).rules}
    for sub in network.substations:
        gateway = rules[ent.gateway(sub.id)].body
        cores = gateway.children if network.pmus[sub.id] else (gateway,)
        head, _, power = cores[0].children
        paths = [paths_of(network.rule_set(MIIM, case), sub.id) for case in CASES]
        holders = [*cores, *(scada.body for scada, _ in paths)]
        if network.pmus[sub.id]:
            holders.append(paths[0][1].body)
        for body in holders:
            assert body.children[0] is head
            assert body.children[2] is power
        devices = [ent.rtu(i) for i in network.rtus[sub.id]]
        devices += [ent.pmu(j) for j in network.pmus[sub.id]]
        assert len({id(rules[device].body) for device in devices}) == 1


def test_registry_closure(ieee14):
    for rule_set in ieee14.rule_sets.values():
        for rule in rule_set.rules:
            assert free_entities(rule) <= set(ieee14.registry)
        for rule in rule_set.availability:
            assert free_entities(rule) <= set(ieee14.registry)


def test_generated_network_validates(ieee14):
    assert validate(ieee14) == []


def test_determinism(ieee14_grid):
    first = build_joint_network(ieee14_grid)
    second = build_joint_network(ieee14_grid)
    for key in first.rule_sets:
        a = format_idr_file(first.rule_sets[key].rules)
        b = format_idr_file(second.rule_sets[key].rules)
        assert a == b
    assert first.sadm_ring == second.sadm_ring
    assert first.oadm_homing == second.oadm_homing


def test_rule_files_reparse(ieee14):
    for (model, case), rule_set in ieee14.rule_sets.items():
        text = format_idr_file(rule_set.rules)
        assert parse_idr_file(text) == list(rule_set.rules)


def test_118_bus_rules_round_trip_and_hold_at_full_operation(ieee118):
    rule_set = ieee118.rule_set(MIIM, 1)
    assert parse_idr_file(format_idr_file(rule_set.rules)) == list(rule_set.rules)
    full_state = {e: 2 for e in ieee118.registry}
    for rule in rule_set.rules:
        assert evaluate(rule.body, full_state) == 2
    on_state = {e: 1 for e in ieee118.registry}
    for rule in read(ieee118.rule_set(IIM, 2)).rules:
        assert evaluate(rule.body, on_state) == 1


def test_evaluation_monotone_on_generated_bodies(ieee14):
    rng = random.Random(11)
    rules = ieee14.rule_set(MIIM, 1).rules
    for _ in range(300):
        rule = rng.choice(rules)
        entities = sorted(free_entities(rule))
        state = {e: rng.choice([0, 1, 2]) for e in entities}
        before = evaluate(rule.body, state)
        victim = rng.choice(entities)
        lowered = dict(state)
        lowered[victim] = rng.choice([v for v in (0, 1, 2) if v <= state[victim]])
        after = evaluate(rule.body, lowered)
        assert after <= before


def test_random_grids_synthesize_validated_networks():
    from jointgrid.cascade import FailureScenario, run_cascade, verify_fixpoint
    from jointgrid.network import validate as validate_network

    rng = random.Random(2718)
    built = 0
    attempts = 0
    while built < 20 and attempts < 60:
        attempts += 1
        n = rng.randint(6, 24)
        branches = []
        for node in range(2, n + 1):
            other = rng.randint(1, node - 1)
            transformer = rng.random() < 0.15
            branches.append(
                Branch(other, node, 0.01, 0.1, 0.0, rng.randint(2, 60) / 2.0, transformer)
            )
        for _ in range(rng.randint(0, n // 2)):
            a, b = rng.sample(range(1, n + 1), 2)
            branches.append(Branch(a, b, 0.01, 0.1, 0.0, rng.randint(2, 60) / 2.0, False))
        gens = rng.sample(range(1, n + 1), max(3, n // 4))
        grid = Grid(
            "rand",
            [Bus(i, generator=i in gens) for i in range(1, n + 1)],
            branches,
        )
        probe_subs = group_substations(grid, SynthesisConfig())
        pmu_candidates = [s.id for s in probe_subs]
        grid.config.pmu_substations = rng.sample(
            pmu_candidates, min(3, len(pmu_candidates))
        )
        try:
            network = build_joint_network(grid)
        except SynthesisError:
            continue  # degenerate ring draw (all hosts collapse into the CCs)
        built += 1
        assert validate_network(network) == []

        full = {e: 2 for e in network.registry}
        for rule in network.rule_set(MIIM, 2).rules:
            assert evaluate(rule.body, full) == 2
        on = {e: 1 for e in network.registry}
        for rule in read(network.rule_set(IIM, 1)).rules:
            assert evaluate(rule.body, on) == 1

        # The registry as text is json.dumps of one object per entity, one level deep.
        reference = json.dumps(registry_payload(network), indent=2, sort_keys=True)
        assert registry_text(network) == reference.replace("\n", "\n  ")

        entities = network.entity_ids()
        rule_set = network.rule_set(MIIM, 1)
        for _ in range(5):
            killed = rng.sample(entities, rng.randint(1, 4))
            trace = run_cascade(network, rule_set, FailureScenario.of(killed))
            assert trace.converged_at <= 2 * len(entities)
            assert verify_fixpoint(network, rule_set, trace)
    assert built == 20


def test_multi_rtu_substation_aggregates_with_xor(ieee14):
    import copy

    network = copy.deepcopy(ieee14)
    network.rtus[6] = [6, 20]
    network.registry[ent.rtu(20)] = network.registry[ent.rtu(6)]
    network.registry[ent.rtu_channel(20, 6)] = network.registry[ent.rtu_channel(6, 6)]
    rules, _ = generate_rules(network, _id_tables(network))
    gateway_rule = next(rule for rule in rules if rule.target == ent.gateway(6))
    ingest = gateway_rule.body.children[1]
    assert ingest.op == "new_xor"
    assert len(ingest.children) == 2
