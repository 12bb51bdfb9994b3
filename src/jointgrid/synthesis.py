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

Each substation's and each ring's entity ids are built once per build, as a
``_SubstationIds`` and a ``_RingSide``, and those tables feed both the
registry and every rule.

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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from jointgrid import entities as ent
from jointgrid.entities import EntityId
from jointgrid.grid import Grid, SynthesisConfig, first_five
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
    Either way the substations are returned in ascending id order.
    """
    config, bus_ids = config or grid.config, grid.bus_ids  # bus_ids sorts on each read
    if config.substation_map is not None:
        groups: Dict[int, List[int]] = {}
        known = set(bus_ids)
        for bus_id in sorted(config.substation_map):
            if bus_id not in known:
                raise SynthesisError(f"substation map references unknown bus {bus_id}")
            groups.setdefault(config.substation_map[bus_id], []).append(bus_id)
        subs = [Substation(sub_id, buses) for sub_id, buses in sorted(groups.items())]
    else:
        parent = {b: b for b in bus_ids}

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
        for b in bus_ids:
            groups.setdefault(find(b), []).append(b)
        subs = [
            Substation(i, buses)
            for i, (_, buses) in enumerate(sorted(groups.items()), start=1)
        ]

    generators = set(grid.generator_buses())
    pmu_subs = set(config.pmu_substations)
    unknown = sorted(pmu_subs - {s.id for s in subs})
    if unknown:
        raise SynthesisError(f"pmu_substations reference unknown substations ({len(unknown)}): {first_five(unknown)}")
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
    via = np.empty_like(d)
    for k in range(n):  # in place: each step's sums are taken before it updates d
        np.minimum(d, np.add(d[:, k : k + 1], d[k : k + 1, :], out=via), out=d)
    if np.isinf(d).any():
        # A cut grid can leave thousands of pairs (i < j, row by row): name their count and the first five.
        pairs = [(sub_ids[i], sub_ids[j]) for i, j in np.argwhere(np.triu(np.isinf(d), 1)).tolist()]
        raise SynthesisError(f"substation graph is disconnected; {len(pairs)} unreachable pairs: {first_five(pairs)}")
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
    override (the grid's ``<kind>_homing``) maps substation id to host
    substation id, and each of its keys must name a substation that is not
    a control center.  Control-center gateways connect to every node and
    are absent from the map.
    """
    override = override or {}
    is_center = {sub.id: sub.is_control_center for sub in substations}
    for key in sorted(override):
        if key not in is_center:
            raise SynthesisError(f"{ring.kind}_homing: substation {key} does not exist")
        if is_center[key]:
            raise SynthesisError(
                f"{ring.kind}_homing: substation {key} is a control center,"
                " whose gateway connects to every node"
            )
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
            homing[sub.id] = ring.hosts.index(host) + 1
        else:
            homing[sub.id] = int(np.argmin(dist.matrix[dist._index[sub.id], host_columns])) + 1
    return homing


# --- Rule generation ------------------------------------------------------------


def _node(op: str, children: Sequence[IdrExpr]) -> IdrExpr:
    """Operator node that collapses to its only child."""
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
class _SubstationIds:
    """The ids of one substation's entities, each built once per build.

    ``server_feeds`` and ``gateway_feeds`` pair each power source (the buses
    in bus order, then the battery) with its link to the server (families 1
    and 5) or to the gateway (2 and 6); ``rtus`` and ``pmus`` pair each
    device with its channel.  ``pmu_path`` is None for a substation without
    PMUs.
    """

    sub: Substation
    battery: EntityId
    server: EntityId
    gateway: EntityId
    lan: EntityId
    buses: Tuple[EntityId, ...]
    server_feeds: Tuple[Tuple[EntityId, EntityId], ...]
    gateway_feeds: Tuple[Tuple[EntityId, EntityId], ...]
    rtus: Tuple[Tuple[EntityId, EntityId], ...]  # (R(i), C(1,6,i,s))
    pmus: Tuple[Tuple[EntityId, EntityId], ...]  # (U(j), C(1,7,j,s))
    scada_path: EntityId
    pmu_path: Optional[EntityId]


def _substation_ids(network: JointNetwork, sub: Substation) -> _SubstationIds:
    s = sub.id
    pmu_ids = network.pmus.get(s, [])
    battery = ent.battery(s)
    buses = tuple(map(ent.bus, sub.buses))

    def feeds(bus_family: int, battery_family: int):
        links = [ent.link(bus_family, b) for b in sub.buses] + [ent.link(battery_family, s)]
        return tuple(zip(buses + (battery,), links))

    return _SubstationIds(
        sub, battery, ent.server(s), ent.gateway(s), ent.lan(s), buses, feeds(1, 5), feeds(2, 6),
        tuple((ent.rtu(i), ent.rtu_channel(i, s)) for i in network.rtus[s]),
        tuple((ent.pmu(j), ent.pmu_channel(j, s)) for j in pmu_ids),
        ent.gw_scada(s),
        ent.gw_pmu(s) if pmu_ids else None,
    )


@dataclass(frozen=True)
class _RingSide:
    """One optical ring as both the registry and the rules see it, with the
    id of each of its entities built once.

    ``channels`` maps each node to the substations with a gateway channel
    into it, ascending (those homed onto it plus both control centers), and
    each of those to its channel.  ``sources`` are the channels whose data
    the node must carry, which is every channel but a control center
    hosting the node itself.  ``feeds`` are the node's power feeds, each a
    bus and its link; ``neighbors`` each neighbouring node, ascending, with
    the ring link to it; ``links`` the ring links by node pair.
    """

    ring: Ring
    homing: Dict[int, int]  # non-CC substation -> node id
    nodes: Dict[int, EntityId]
    channels: Dict[int, Dict[int, EntityId]]
    sources: Dict[int, List[EntityId]]
    feeds: Dict[int, List[Tuple[EntityId, EntityId]]]
    neighbors: Dict[int, List[Tuple[EntityId, EntityId]]]
    links: Dict[Tuple[int, int], EntityId]


def _ring_side(
    network: JointNetwork,
    subs: Dict[int, _SubstationIds],
    ring: Ring,
    homing: Dict[int, int],
    node,
    ring_link,
    channel,
    family: int,
) -> _RingSide:
    ccs = network.control_centers
    nodes = {n: node(n) for n in range(1, ring.node_count + 1)}
    members: Dict[int, List[int]] = {n: list(ccs) for n in nodes}
    for sub_id, homed in homing.items():
        members[homed].append(sub_id)
    channels = {n: {s: channel(n, s) for s in sorted(members[n])} for n in nodes}
    # Host buses first, then the source substations' buses ascending by
    # substation; link indices run across nodes in node order.
    sources: Dict[int, List[EntityId]] = {}
    feeds: Dict[int, List[Tuple[EntityId, EntityId]]] = {}
    counter = 1
    for n in nodes:
        host = ring.host_of(n)
        carried = [s for s in channels[n] if not (s == host and s in ccs)]
        sources[n] = [channels[n][s] for s in carried]
        order = [host] + [s for s in carried if s != host]
        buses = [bus for sub_id in order for bus in subs[sub_id].buses]
        feeds[n] = [(bus, ent.link(family, counter + i)) for i, bus in enumerate(buses)]
        counter += len(buses)
    links = {(a, b): ring_link(a, b) for a, b in ring.edges}
    neighbors = {n: [(nodes[m], links[min(n, m), max(n, m)]) for m in ring.neighbors(n)] for n in nodes}
    return _RingSide(ring, homing, nodes, channels, sources, feeds, neighbors, links)


@dataclass(frozen=True)
class _IdTables:
    """Every id of a build, each made once: per substation, and per ring
    side (SONET, then DWDM).  The registry and the rules read these."""

    substations: Dict[int, _SubstationIds]  # ascending by substation id
    sides: Tuple[_RingSide, _RingSide]


def _id_tables(network: JointNetwork) -> _IdTables:
    """The substations' ids, then the SONET side's (SADMs; RTU/SCADA
    traffic) and the DWDM side's (OADMs; PMU traffic, and SCADA backup under
    case 2)."""
    subs = {sub.id: _substation_ids(network, sub) for sub in network.substations}  # ascending ids, as built
    sides = (
        _ring_side(
            network, subs, network.sadm_ring, network.sadm_homing,
            ent.sadm, ent.sonet_ring_link, ent.sonet_channel, 3,
        ),
        _ring_side(
            network, subs, network.oadm_ring, network.oadm_homing,
            ent.oadm, ent.dwdm_ring_link, ent.dwdm_channel, 4,
        ),
    )
    return _IdTables(subs, sides)


def build_registry(tables: _IdTables) -> Dict[EntityId, EntityMeta]:
    """Register every modeled entity with its owning substation/endpoints.
    Entities of one substation without endpoints share one metadata value."""
    registry: Dict[EntityId, EntityMeta] = {}

    for ids in tables.substations.values():
        sub_id = ids.sub.id
        owned = EntityMeta(substation=sub_id)
        for entity in (*ids.buses, ids.battery, ids.server, ids.gateway, ids.lan):
            registry[entity] = owned
        for feeds, device in ((ids.server_feeds, ids.server), (ids.gateway_feeds, ids.gateway)):
            for source, link in feeds:
                registry[link] = EntityMeta(sub_id, (source, device))
        for device, channel in ids.rtus + ids.pmus:
            registry[device] = registry[channel] = owned

    for side in tables.sides:
        for n, node in side.nodes.items():
            registry[node] = EntityMeta(substation=side.ring.host_of(n))
            for sub_id, channel in side.channels[n].items():
                registry[channel] = EntityMeta(sub_id, (tables.substations[sub_id].gateway, node))
            for bus, link in side.feeds[n]:
                registry[link] = EntityMeta(ends=(bus, node))
        for (a, b), link in side.links.items():
            registry[link] = EntityMeta(ends=(side.nodes[a], side.nodes[b]))
    return registry


def _power(feeds: Sequence[Tuple[EntityId, EntityId]]) -> IdrExpr:
    """Supply from any of the substation's buses or its battery, each over its
    link (``server_feeds`` or ``gateway_feeds``)."""
    return _max_or([_min_and(source, link) for source, link in feeds])


def _ingest(devices: Sequence[Tuple[EntityId, EntityId]]) -> IdrExpr:
    """Unanimous data from each device of one kind over its channel."""
    return _new_xor([_min_and(device, channel) for device, channel in devices])


def _ring_connect(side: _RingSide, sub: Substation) -> IdrExpr:
    """Gateway-to-ring reachability term: the homed node for an ordinary
    substation, any node for a control center."""
    if sub.is_control_center:
        nodes = side.nodes
    else:
        nodes = [side.homing[sub.id]]
    return _max_or([_min_and(side.nodes[n], side.channels[n][sub.id]) for n in nodes])


def _ring_node_rule(side: _RingSide, node: int, cc_gateways: Sequence[Tuple[int, EntityId]]) -> IdrRule:
    """Operational rule for a ring node: survivable ring/control-center
    reachability, unanimous data feed from its source gateways' channels,
    and at least one live power feed."""
    reach_terms = [_min_and(neighbor, link) for neighbor, link in side.neighbors[node]]
    reach_terms += [_min_and(gateway, side.channels[node][cc]) for cc, gateway in cc_gateways]
    power_terms = [_min_and(bus, link) for bus, link in side.feeds[node]]
    body = _min_and(_max_or(reach_terms), _new_xor(side.sources[node]), _max_or(power_terms))
    return IdrRule(side.nodes[node], body)


def generate_rules(network: JointNetwork, tables: _IdTables) -> Tuple[List[IdrRule], Dict[int, List[IdrRule]]]:
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
    sadm, oadm = tables.sides
    rules: List[IdrRule] = []
    availability: Dict[int, List[IdrRule]] = {case: [] for case in CASES}
    for ids in tables.substations.values():
        sub = ids.sub
        server_body = _min_and(_min_and(ids.gateway, ids.lan), _power(ids.server_feeds))
        rules.append(IdrRule(ids.server, server_body))

        head = _min_and(ids.server, ids.lan)
        power = _power(ids.gateway_feeds)
        scada_ingest = _ingest(ids.rtus)
        gateway_body = _min_and(head, scada_ingest, power)
        sadm_connect = _ring_connect(sadm, sub)
        oadm_connect = _ring_connect(oadm, sub)
        device_power = _max_or([*ids.buses, ids.battery])
        pmu_rules = []
        if ids.pmus:
            pmu_ingest = _ingest(ids.pmus)
            gateway_body = _new_xor([gateway_body, _min_and(head, pmu_ingest, power)])
            pmu_body = _min_and(head, _min_and(pmu_ingest, oadm_connect), power)
            pmu_rules.append(IdrRule(ids.pmu_path, pmu_body))
        rules.append(IdrRule(ids.gateway, gateway_body))
        rules += [IdrRule(device, device_power) for device, _ in ids.rtus + ids.pmus]

        scada_reach = {1: sadm_connect, 2: Op(OP_MAX_OR, (sadm_connect, oadm_connect))}
        for case in CASES:
            scada_body = _min_and(head, _min_and(scada_ingest, scada_reach[case]), power)
            availability[case] += [IdrRule(ids.scada_path, scada_body), *pmu_rules]

    cc_gateways = [(cc, tables.substations[cc].gateway) for cc in network.control_centers]
    for side in tables.sides:
        for node, channels in side.channels.items():
            rules.append(_ring_node_rule(side, node, cc_gateways))
            rules += [IdrRule(channel, tables.substations[s].gateway) for s, channel in channels.items()]

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
    pmus: Dict[int, List[int]] = {}
    pmu_count = 0
    for sub in substations:  # in ascending id order
        rtus[sub.id] = [sub.id]
        pmu_count += sub.has_pmu
        pmus[sub.id] = [pmu_count] if sub.has_pmu else []

    network = JointNetwork(
        grid=grid,
        substations=substations,
        registry={},
        sadm_ring=sadm_ring,
        oadm_ring=oadm_ring,
        sadm_homing=sadm_homing,
        oadm_homing=oadm_homing,
        rtus=rtus,
        pmus=pmus,
    )
    tables = _id_tables(network)
    network = replace(network, registry=build_registry(tables))
    rules, availability = generate_rules(network, tables)
    # A case's IIM rule set holds the very rules and availability tuples of
    # its MIIM rule set: the model names how the rules are read.
    rules = tuple(rules)
    network.rule_sets = {(MIIM, case): RuleSet(MIIM, case, rules, availability[case]) for case in CASES}
    for case in CASES:
        network.rule_sets[IIM, case] = replace(network.rule_sets[MIIM, case], model=IIM)
    return network
