"""Builds the communication overlay and its dependency-rule sets from a grid.

Pipeline: group buses into substations, compute inter-substation distances
(Floyd-Warshall over branch lengths), pick primary/backup control centers,
place SONET-ring nodes (SADMs) near control centers and generating
substations and DWDM-ring nodes (OADMs) near control centers and
PMU-equipped substations, home every other gateway onto its nearest ring
nodes, then emit the ternary-model rules once for both channel policies.
The binary model (IIM) builds no rules of its own: each case's IIM rule set
holds the very rules of its MIIM rule set, and the model names how they are
read (``idr.compile_expr``).

Each ring is described once, as a ``_RingSide``, and that one description
feeds both the registry and every rule.

Channel policy case 1 keeps RTU traffic strictly on the SONET path; case 2
lets the high-bandwidth DWDM path carry RTU traffic when the SONET path is
down.  The two cases share cascade rules and differ only in the SCADA
availability rules.  Availability rules are rules like any other, on each
substation's data paths ``GS(s)`` (SCADA) and ``GP(s)`` (PMU).  One pass per
substation builds its cascade rules and both cases' availability rules: the
gateway's terms (server and LAN, device ingest, power, ring reachability)
are built once and shared by every rule that states them, and the cases
share the PMU availability rule.

Explicit placement inputs (substation map, control centers, per-substation
homing) override the distance-derived choices; they exist because real
fiber layouts follow geography that branch lengths cannot always recover.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from jointgrid import entities as ent
from jointgrid.entities import EntityId
from jointgrid.grid import Grid, SynthesisConfig
from jointgrid.idr import (
    IIM,
    MIIM,
    IdrExpr,
    IdrRule,
    Op,
    OP_MAX_OR,
    OP_MIN_AND,
    OP_NEW_XOR,
)
from jointgrid.network import (
    CASES,
    EntityMeta,
    JointNetwork,
    Ring,
    RuleSet,
    Substation,
    ROLE_BACKUP_CC,
    ROLE_GENERATING,
    ROLE_PRIMARY_CC,
)


class SynthesisError(ValueError):
    """Synthesis inputs are inconsistent with the grid."""


# --- Substation grouping -----------------------------------------------------


def group_substations(grid: Grid, config: Optional[SynthesisConfig] = None) -> List[Substation]:
    """Group buses into substations.

    An explicit bus-to-substation map wins; otherwise buses joined by
    transformer branches merge and every other bus stands alone, with
    substation ids assigned in ascending order of each group's lowest bus.
    """
    config = config or grid.config
    if config.substation_map is not None:
        groups: Dict[int, List[int]] = {}
        for bus_id in sorted(config.substation_map):
            if bus_id not in set(grid.bus_ids):
                raise SynthesisError(f"substation map references unknown bus {bus_id}")
            groups.setdefault(config.substation_map[bus_id], []).append(bus_id)
        subs = [Substation(sub_id, buses) for sub_id, buses in sorted(groups.items())]
    else:
        parent = {b: b for b in grid.bus_ids}

        def find(b):
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            return b

        for branch in grid.branches:
            if branch.transformer:
                ra, rb = find(branch.from_bus), find(branch.to_bus)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
        groups = {}
        for b in grid.bus_ids:
            groups.setdefault(find(b), []).append(b)
        subs = [
            Substation(i, buses)
            for i, (_, buses) in enumerate(sorted(groups.items()), start=1)
        ]

    generators = set(grid.generator_buses())
    pmu_subs = set(config.pmu_substations)
    sub_ids = {s.id for s in subs}
    unknown = pmu_subs - sub_ids
    if unknown:
        raise SynthesisError(f"pmu_substations reference unknown substations: {sorted(unknown)}")
    for sub in subs:
        sub.buses.sort()
        if any(b in generators for b in sub.buses):
            sub.role = ROLE_GENERATING
        sub.has_pmu = sub.id in pmu_subs
    return subs


# --- Distances ----------------------------------------------------------------


@dataclass
class DistanceMatrix:
    """All-pairs shortest distances (km) between substations."""

    sub_ids: List[int]
    matrix: np.ndarray

    def __post_init__(self):
        self._index = {sub: i for i, sub in enumerate(self.sub_ids)}

    def dist(self, a: int, b: int) -> float:
        return float(self.matrix[self._index[a], self._index[b]])


def substation_adjacency(grid: Grid, substations: Sequence[Substation]) -> Dict[int, Dict[int, float]]:
    """Substation graph: minimum connecting-branch length between each pair."""
    sub_of = {}
    for sub in substations:
        for bus_id in sub.buses:
            sub_of[bus_id] = sub.id
    adjacency: Dict[int, Dict[int, float]] = {sub.id: {} for sub in substations}
    for branch in grid.branches:
        sa, sb = sub_of[branch.from_bus], sub_of[branch.to_bus]
        if sa == sb:
            continue
        best = adjacency[sa].get(sb)
        if best is None or branch.length < best:
            adjacency[sa][sb] = branch.length
            adjacency[sb][sa] = branch.length
    return adjacency


def all_pairs_shortest(grid: Grid, substations: Sequence[Substation]) -> DistanceMatrix:
    """Floyd-Warshall over the substation graph; rejects disconnected graphs."""
    sub_ids = sorted(s.id for s in substations)
    index = {sub: i for i, sub in enumerate(sub_ids)}
    n = len(sub_ids)
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for a, row in substation_adjacency(grid, substations).items():
        for b, w in row.items():
            d[index[a], index[b]] = min(d[index[a], index[b]], w)
    for k in range(n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    if np.isinf(d).any():
        pairs = [
            (sub_ids[i], sub_ids[j])
            for i in range(n)
            for j in range(i + 1, n)
            if np.isinf(d[i, j])
        ]
        raise SynthesisError(f"substation graph is disconnected; unreachable pairs: {pairs}")
    return DistanceMatrix(sub_ids, d)


def select_control_centers(
    dist: DistanceMatrix,
    substations: Sequence[Substation],
    adjacency: Optional[Dict[int, Dict[int, float]]] = None,
    override: Optional[Tuple[int, int]] = None,
) -> Tuple[int, int]:
    """Pick (primary, backup) control centers.

    Ranking: smallest total shortest-path distance first, ties broken by
    higher substation-graph degree, then lower id.  An explicit override
    wins outright.
    """
    sub_ids = {s.id for s in substations}
    if override is not None:
        primary, backup = override
        missing = {primary, backup} - sub_ids
        if missing:
            raise SynthesisError(f"control-center override references unknown substations: {sorted(missing)}")
        return (primary, backup)
    if len(sub_ids) < 2:
        raise SynthesisError("need at least two substations to place control centers")
    degree = {sub: len((adjacency or {}).get(sub, {})) for sub in sub_ids}
    totals = {sub: sum(dist.matrix[dist._index[sub]].tolist()) for sub in sub_ids}
    ranked = sorted(sub_ids, key=lambda sub: (totals[sub], -degree[sub], sub))
    return (ranked[0], ranked[1])


# --- Ring placement and homing -------------------------------------------------

SADM = "sadm"
OADM = "oadm"


def ring_hosts(substations: Sequence[Substation], kind: str) -> List[int]:
    """Substations that receive a ring node, ascending by id."""
    hosts = set()
    for sub in substations:
        if sub.is_control_center:
            hosts.add(sub.id)
        elif kind == SADM and sub.role == ROLE_GENERATING:
            hosts.add(sub.id)
        elif kind == OADM and sub.has_pmu:
            hosts.add(sub.id)
    return sorted(hosts)


def place_ring_nodes(
    substations: Sequence[Substation], kind: str, dist: DistanceMatrix, primary_cc: int
) -> Ring:
    """Order ring hosts into a cycle via a nearest-neighbor tour from the
    primary control center; node ids follow ascending host substation id."""
    hosts = ring_hosts(substations, kind)
    if len(hosts) < 3:
        raise SynthesisError(
            f"degenerate {kind} ring: {len(hosts)} hosts (need at least 3)"
        )
    node_of = {host: i + 1 for i, host in enumerate(hosts)}
    tour = [primary_cc]
    remaining = [h for h in hosts if h != primary_cc]  # ascending: argmin ties to the lowest id
    columns = [dist._index[h] for h in remaining]
    while remaining:
        nearest = int(np.argmin(dist.matrix[dist._index[tour[-1]], columns]))
        columns.pop(nearest)
        tour.append(remaining.pop(nearest))
    edges = []
    for i, host in enumerate(tour):
        other = tour[(i + 1) % len(tour)]
        a, b = sorted((node_of[host], node_of[other]))
        edges.append((a, b))
    return Ring(kind, hosts, sorted(set(edges)))


def home_gateways(
    substations: Sequence[Substation],
    ring: Ring,
    dist: DistanceMatrix,
    override: Optional[Dict[int, int]] = None,
) -> Dict[int, int]:
    """Map each non-control-center substation to a ring node.

    Default choice is the nearest host (ties to the lowest node id); the
    override maps substation id to host substation id.  Control-center
    gateways connect to every node and are absent from the map.
    """
    override = override or {}
    homing: Dict[int, int] = {}
    host_set = set(ring.hosts)
    host_columns = [dist._index[host] for host in ring.hosts]  # node order: argmin ties to the lowest
    for sub in substations:
        if sub.is_control_center:
            continue
        if sub.id in override:
            host = override[sub.id]
            if host not in host_set:
                raise SynthesisError(
                    f"homing override for substation {sub.id}: {host} hosts no {ring.kind} node"
                )
            homing[sub.id] = ring.node_at(host)
        else:
            homing[sub.id] = int(np.argmin(dist.matrix[dist._index[sub.id], host_columns])) + 1
    return homing


# --- Rule generation ------------------------------------------------------------


def _node(op: str, children: Sequence[IdrExpr]) -> IdrExpr:
    """Operator node that collapses to its only child."""
    children = list(children)
    if len(children) == 1:
        return children[0]
    return Op(op, tuple(children))


def _min_and(*children: IdrExpr) -> IdrExpr:
    return _node(OP_MIN_AND, children)


def _max_or(children: Sequence[IdrExpr]) -> IdrExpr:
    return _node(OP_MAX_OR, children)


def _new_xor(children: Sequence[IdrExpr]) -> IdrExpr:
    return _node(OP_NEW_XOR, children)


@dataclass(frozen=True)
class _RingSide:
    """One optical ring as both the registry and the rules see it.

    ``channels`` maps each node to the substations with a gateway channel
    into it: those homed onto it plus both control centers.  ``sources``
    are the channels whose data the node must carry, which is every channel
    but a control center hosting the node itself.  ``feeds`` are the node's
    (bus, link index) power feeds, in link family ``family``.
    """

    ring: Ring
    homing: Dict[int, int]  # non-CC substation -> node id
    node: Callable[[int], EntityId]
    link: Callable[[int, int], EntityId]
    channel: Callable[[int, int], EntityId]  # (node, substation)
    family: int
    channels: Dict[int, List[int]]
    sources: Dict[int, List[int]]
    feeds: Dict[int, List[Tuple[int, int]]]


def _ring_side(
    network: JointNetwork, ring: Ring, homing: Dict[int, int], node, link, channel, family: int
) -> _RingSide:
    ccs = network.control_centers
    nodes = range(1, ring.node_count + 1)
    channels: Dict[int, List[int]] = {n: list(ccs) for n in nodes}
    for sub_id, homed in homing.items():
        channels[homed].append(sub_id)
    sources: Dict[int, List[int]] = {}
    for n, subs in channels.items():
        subs.sort()
        sources[n] = [s for s in subs if not (s == ring.host_of(n) and s in ccs)]
    # Host buses first, then the source substations' buses ascending by
    # substation; link indices run across nodes in node order.
    buses_of = {sub.id: sub.buses for sub in network.substations}
    feeds: Dict[int, List[Tuple[int, int]]] = {}
    counter = 1
    for n in nodes:
        host = ring.host_of(n)
        order = [host] + [s for s in sources[n] if s != host]
        buses = [bus_id for sub_id in order for bus_id in buses_of[sub_id]]
        feeds[n] = [(bus_id, counter + i) for i, bus_id in enumerate(buses)]
        counter += len(buses)
    return _RingSide(ring, homing, node, link, channel, family, channels, sources, feeds)


def _ring_sides(network: JointNetwork) -> Tuple[_RingSide, _RingSide]:
    """The SONET side (SADMs; RTU/SCADA traffic) and the DWDM side (OADMs;
    PMU traffic, and SCADA backup under case 2)."""
    return (
        _ring_side(
            network, network.sadm_ring, network.sadm_homing,
            ent.sadm, ent.sonet_ring_link, ent.sonet_channel, 3,
        ),
        _ring_side(
            network, network.oadm_ring, network.oadm_homing,
            ent.oadm, ent.dwdm_ring_link, ent.dwdm_channel, 4,
        ),
    )


def build_registry(network: JointNetwork) -> Dict[EntityId, EntityMeta]:
    """Register every modeled entity with its owning substation/endpoints."""
    registry: Dict[EntityId, EntityMeta] = {}

    for sub in network.substations:
        for bus_id in sub.buses:
            registry[ent.bus(bus_id)] = EntityMeta(substation=sub.id)
        registry[ent.battery(sub.id)] = EntityMeta(substation=sub.id)
        registry[ent.server(sub.id)] = EntityMeta(substation=sub.id)
        registry[ent.gateway(sub.id)] = EntityMeta(substation=sub.id)
        registry[ent.lan(sub.id)] = EntityMeta(substation=sub.id)
        server, gateway = str(ent.server(sub.id)), str(ent.gateway(sub.id))
        for bus_id in sub.buses:
            bus = str(ent.bus(bus_id))
            registry[ent.link(1, bus_id)] = EntityMeta(substation=sub.id, endpoints=(bus, server))
            registry[ent.link(2, bus_id)] = EntityMeta(substation=sub.id, endpoints=(bus, gateway))
        battery = str(ent.battery(sub.id))
        registry[ent.link(5, sub.id)] = EntityMeta(substation=sub.id, endpoints=(battery, server))
        registry[ent.link(6, sub.id)] = EntityMeta(substation=sub.id, endpoints=(battery, gateway))
        for rtu_id in network.rtus[sub.id]:
            registry[ent.rtu(rtu_id)] = EntityMeta(substation=sub.id)
            registry[ent.rtu_channel(rtu_id, sub.id)] = EntityMeta(substation=sub.id)
        for pmu_id in network.pmus.get(sub.id, []):
            registry[ent.pmu(pmu_id)] = EntityMeta(substation=sub.id)
            registry[ent.pmu_channel(pmu_id, sub.id)] = EntityMeta(substation=sub.id)

    for side in _ring_sides(network):
        for node, subs in side.channels.items():
            node_name = str(side.node(node))
            registry[side.node(node)] = EntityMeta(substation=side.ring.host_of(node))
            for sub_id in subs:
                registry[side.channel(node, sub_id)] = EntityMeta(
                    substation=sub_id, endpoints=(str(ent.gateway(sub_id)), node_name)
                )
            for bus_id, link_index in side.feeds[node]:
                registry[ent.link(side.family, link_index)] = EntityMeta(
                    endpoints=(str(ent.bus(bus_id)), node_name)
                )
        for a, b in side.ring.edges:
            registry[side.link(a, b)] = EntityMeta(endpoints=(str(side.node(a)), str(side.node(b))))
    return registry


def _power(sub: Substation, bus_family: int, battery_family: int) -> IdrExpr:
    """Supply from any of the substation's buses or its battery, each over its
    link in the given family: 1 and 5 feed the server, 2 and 6 the gateway."""
    terms = [_min_and(ent.bus(b), ent.link(bus_family, b)) for b in sub.buses]
    terms.append(_min_and(ent.battery(sub.id), ent.link(battery_family, sub.id)))
    return _max_or(terms)


def _ingest(sub: Substation, device_ids: Sequence[int], device, channel) -> IdrExpr:
    """Unanimous data from each device of one kind over its channel."""
    return _new_xor([_min_and(device(i), channel(i, sub.id)) for i in device_ids])


def _ring_connect(side: _RingSide, sub: Substation) -> IdrExpr:
    """Gateway-to-ring reachability term: the homed node for an ordinary
    substation, any node for a control center."""
    if sub.is_control_center:
        nodes = range(1, side.ring.node_count + 1)
    else:
        nodes = [side.homing[sub.id]]
    return _max_or([_min_and(side.node(n), side.channel(n, sub.id)) for n in nodes])


def _ring_node_rule(side: _RingSide, node: int, ccs: Sequence[int]) -> IdrRule:
    """Operational rule for a ring node: survivable ring/control-center
    reachability, unanimous data feed from its source gateways' channels,
    and at least one live power feed."""
    reach_terms = [
        _min_and(side.node(neighbor), side.link(node, neighbor))
        for neighbor in side.ring.neighbors(node)
    ]
    reach_terms += [_min_and(ent.gateway(cc), side.channel(node, cc)) for cc in ccs]
    data_terms = [side.channel(node, sub_id) for sub_id in side.sources[node]]
    power_terms = [
        _min_and(ent.bus(bus_id), ent.link(side.family, link_index))
        for bus_id, link_index in side.feeds[node]
    ]
    body = _min_and(_max_or(reach_terms), _new_xor(data_terms), _max_or(power_terms))
    return IdrRule(side.node(node), body, MIIM)


def generate_rules(network: JointNetwork) -> Tuple[List[IdrRule], Dict[int, List[IdrRule]]]:
    """Ternary-model cascade rules, one per dependent entity, and per case
    the data-path rules deciding SCADA/PMU delivery, in rule-file order
    (substations ascending, ``GS(s)`` before ``GP(s)``), from one pass over
    the substations.

    Buses, batteries, intra-substation cabling, ring links, and power-supply
    links carry no cascade rules: they fail only when attacked directly.
    Ring-node reachability is deliberately absent from gateway rules; whether
    data still reaches a control center is the availability layer's question
    and does not feed back into equipment failure.

    The data-path rules restate the gateway's operating conditions
    (server and LAN, device ingest, power) with the very terms its cascade
    rule holds, add ring reachability, and are evaluated against a cascade
    fixpoint rather than iterated.  SCADA follows the SONET path; under case
    2 the DWDM path backs it up.  PMU data follows the DWDM path in both
    cases, so both cases hold the same PMU rule.
    """
    sadm, oadm = sides = _ring_sides(network)
    rules: List[IdrRule] = []
    availability: Dict[int, List[IdrRule]] = {case: [] for case in CASES}
    for sub in sorted(network.substations, key=attrgetter("id")):
        server_body = _min_and(_min_and(ent.gateway(sub.id), ent.lan(sub.id)), _power(sub, 1, 5))
        rules.append(IdrRule(ent.server(sub.id), server_body, MIIM))

        head = _min_and(ent.server(sub.id), ent.lan(sub.id))
        power = _power(sub, 2, 6)
        scada_ingest = _ingest(sub, network.rtus[sub.id], ent.rtu, ent.rtu_channel)
        gateway_body = _min_and(head, scada_ingest, power)
        sadm_connect = _ring_connect(sadm, sub)
        oadm_connect = _ring_connect(oadm, sub)
        device_power = _max_or([ent.bus(b) for b in sub.buses] + [ent.battery(sub.id)])
        devices = [ent.rtu(i) for i in network.rtus[sub.id]]
        pmu_rules = []
        pmu_ids = network.pmus.get(sub.id)
        if pmu_ids:
            pmu_ingest = _ingest(sub, pmu_ids, ent.pmu, ent.pmu_channel)
            gateway_body = _new_xor([gateway_body, _min_and(head, pmu_ingest, power)])
            pmu_body = _min_and(head, _min_and(pmu_ingest, oadm_connect), power)
            pmu_rules.append(IdrRule(ent.gw_pmu(sub.id), pmu_body, MIIM))
            devices += [ent.pmu(j) for j in pmu_ids]
        rules.append(IdrRule(ent.gateway(sub.id), gateway_body, MIIM))
        rules += [IdrRule(device, device_power, MIIM) for device in devices]

        scada_reach = {1: sadm_connect, 2: Op(OP_MAX_OR, (sadm_connect, oadm_connect))}
        for case in CASES:
            scada_body = _min_and(head, _min_and(scada_ingest, scada_reach[case]), power)
            availability[case] += [IdrRule(ent.gw_scada(sub.id), scada_body, MIIM), *pmu_rules]

    ccs = network.control_centers
    for side in sides:
        for node, subs in side.channels.items():
            rules.append(_ring_node_rule(side, node, ccs))
            rules += [IdrRule(side.channel(node, s), ent.gateway(s), MIIM) for s in subs]

    rules.sort(key=attrgetter("target"))
    return rules, availability


# --- Orchestration ----------------------------------------------------------------


def build_joint_network(grid: Grid) -> JointNetwork:
    """Run the full synthesis pipeline, configured by ``grid.config``, and
    return a validated-ready network."""
    config = grid.config
    substations = group_substations(grid, config)
    dist = all_pairs_shortest(grid, substations)
    adjacency = substation_adjacency(grid, substations)
    primary, backup = select_control_centers(
        dist, substations, adjacency, override=config.control_centers
    )
    for sub in substations:
        if sub.id == primary:
            sub.role = ROLE_PRIMARY_CC
        elif sub.id == backup:
            sub.role = ROLE_BACKUP_CC

    sadm_ring = place_ring_nodes(substations, SADM, dist, primary)
    oadm_ring = place_ring_nodes(substations, OADM, dist, primary)
    sadm_homing = home_gateways(substations, sadm_ring, dist, config.sadm_homing)
    oadm_homing = home_gateways(substations, oadm_ring, dist, config.oadm_homing)

    rtus: Dict[int, List[int]] = {}
    for sub in sorted(substations, key=lambda s: s.id):
        rtus[sub.id] = [sub.id]
    pmus: Dict[int, List[int]] = {sub.id: [] for sub in substations}
    next_pmu = 1
    for sub in sorted(substations, key=lambda s: s.id):
        if sub.has_pmu:
            pmus[sub.id] = [next_pmu]
            next_pmu += 1

    network = JointNetwork(
        grid=grid,
        substations=sorted(substations, key=lambda s: s.id),
        registry={},
        sadm_ring=sadm_ring,
        oadm_ring=oadm_ring,
        sadm_homing=sadm_homing,
        oadm_homing=oadm_homing,
        rtus=rtus,
        pmus=pmus,
    )
    network.registry = build_registry(network)
    network.index_entities()
    rules, availability = generate_rules(network)
    # A case's IIM rule set holds the very rules and availability tuples of
    # its MIIM rule set: the model names how the rules are read.
    rules = tuple(rules)
    network.rule_sets = {(MIIM, case): RuleSet(MIIM, case, rules, availability[case]) for case in CASES}
    for case in CASES:
        network.rule_sets[IIM, case] = replace(network.rule_sets[MIIM, case], model=IIM)
    return network
