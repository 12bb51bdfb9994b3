"""Joint power/communication network: substations, entity registry, rules.

The network couples three entity layers: power entities (buses, batteries),
communication entities (substation equipment, SONET-ring and DWDM-ring
nodes and links), and bridge entities (power-supply links, RTUs, PMUs).
Rule sets give each dependent entity's operational level as an expression
over other entities; a rule set's model, not its rules, says how they are
read.  A rule set's availability rules are rules of the same kind, on each
substation's data-path pseudo-entities ``GS(s)`` (SCADA) and ``GP(s)``
(PMU): they are evaluated at a cascade fixpoint, not iterated, and decide
whether the substation's data still reaches a control center.

A rule's target is an entry of a map: a cascade rule's is its slot, and a
data-path rule's (``data_paths``) is the mask it clears and its substation's
buses.  ``validate`` is the one walk that checks every rule's references
against the slot map and its target map (``reference_problems``); the
cascade engine's one program class checks through its own lookups and asks
``reference_problems`` only for the wording of a refusal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Dict, List, Optional, Sequence, Tuple

from jointgrid import entities as ent
from jointgrid.entities import EntityId
from jointgrid.grid import Grid
from jointgrid.idr import IIM, MIIM, IdrRule

ROLE_PLAIN = "plain"
ROLE_GENERATING = "generating"
ROLE_PRIMARY_CC = "primary_cc"
ROLE_BACKUP_CC = "backup_cc"

CASES = (1, 2)
MODELS = (MIIM, IIM)


@dataclass
class Substation:
    """A group of buses plus its communication equipment flags."""

    id: int
    buses: List[int]
    has_pmu: bool = False
    role: str = ROLE_PLAIN

    @property
    def is_control_center(self) -> bool:
        return self.role in (ROLE_PRIMARY_CC, ROLE_BACKUP_CC)


@dataclass(frozen=True)
class EntityMeta:
    """Registry metadata: owning substation and link endpoints, if any.
    ``ends`` holds the endpoints' ids; writers name them from the network's
    ``names``."""

    substation: Optional[int] = None
    ends: Optional[Tuple[EntityId, EntityId]] = None


@dataclass
class Ring:
    """An ordered optical ring: node ids, host substations, cycle edges."""

    kind: str  # "sadm" or "oadm"
    hosts: List[int]  # substation of node i+1 at position i (node ids 1-based)
    edges: List[Tuple[int, int]]  # ring-link node id pairs, lo < hi

    @property
    def node_count(self) -> int:
        return len(self.hosts)

    def host_of(self, node: int) -> int:
        return self.hosts[node - 1]

    def neighbors(self, node: int) -> List[int]:
        found = sorted(other for a, b in self.edges for other in (a, b) if node in (a, b) and other != node)
        return [n for i, n in enumerate(found) if i == 0 or n != found[i - 1]]


@dataclass(frozen=True, eq=False)
class RuleSet:
    """Cascade rules plus availability rules for one (model, case) pair.

    The availability rules are the substations' data-path rules in rule-file
    order: substations ascending, ``GS(s)`` before ``GP(s)``.  Rules hold no
    model: the rule set's model, one of ``MODELS``, is the only record of how
    they are read.  A synthesized network's IIM rule set holds the ternary
    rules of its MIIM rule set, read as binary (``idr.BINARY``).  Immutable,
    so that the cascade engine can compile the rules once and key the
    program to them: both fields are stored as tuples (a tuple given is kept
    as is, so ``dataclasses.replace`` shares it).  Equality is therefore
    identity, and a deep copy is the rule set itself.
    """

    model: str
    case: int
    rules: Tuple[IdrRule, ...]
    availability: Tuple[IdrRule, ...]

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}: expected one of {MODELS}")
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "availability", tuple(self.availability))

    def __deepcopy__(self, memo) -> "RuleSet":
        return self


@dataclass(eq=False)
class JointNetwork:
    """Equality is identity.

    The index is made with the network from its complete registry and fixed
    for its life: the canonical entity order (the sorted registry), each
    entity's slot in it, and each entity's text in that order (writers read
    ``names[slot]``, not ``str(entity)``).  ``programs`` holds the cascade
    engine's programs compiled over that slot map; a copy starts with none."""

    grid: Grid
    substations: List[Substation]
    registry: Dict[EntityId, EntityMeta]
    sadm_ring: Ring
    oadm_ring: Ring
    sadm_homing: Dict[int, int]  # non-CC substation -> SADM node id
    oadm_homing: Dict[int, int]  # non-CC substation -> OADM node id
    rtus: Dict[int, List[int]]  # substation -> RTU ids
    pmus: Dict[int, List[int]]  # substation -> PMU ids
    rule_sets: Dict[Tuple[str, int], RuleSet] = field(default_factory=dict)
    entity_order: Tuple[EntityId, ...] = field(init=False)
    slots: Dict[EntityId, int] = field(init=False)
    names: Tuple[str, ...] = field(init=False)
    programs: Dict[Tuple[type, int], object] = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        self.entity_order = tuple(sorted(self.registry))
        self.slots = {entity: i for i, entity in enumerate(self.entity_order)}
        self.names = tuple(map(str, self.entity_order))

    def __getstate__(self):
        return {**vars(self), "programs": {}}

    @property
    def primary_cc(self) -> int:
        return next(s.id for s in self.substations if s.role == ROLE_PRIMARY_CC)

    @property
    def backup_cc(self) -> int:
        return next(s.id for s in self.substations if s.role == ROLE_BACKUP_CC)

    @property
    def control_centers(self) -> Tuple[int, int]:
        return (self.primary_cc, self.backup_cc)

    def substation(self, sub_id: int) -> Substation:
        for sub in self.substations:
            if sub.id == sub_id:
                return sub
        raise KeyError(f"unknown substation: {sub_id}")

    def rule_set(self, model: str, case: int) -> RuleSet:
        return self.rule_sets[(model, case)]

    def entity_ids(self) -> Tuple[EntityId, ...]:
        """Every registered entity in canonical (sorted) order."""
        return self.entity_order


def validate(network: JointNetwork) -> List[str]:
    """Check structural invariants; each violation is a human-readable line.
    Rule sets pass ``reference_problems``, the wording the cascade engine
    also uses when a lookup refuses a rule."""
    problems: List[str] = []
    grid_buses = set(network.grid.bus_ids)

    owner: Dict[int, List[int]] = {}
    for sub in network.substations:
        if not sub.buses:
            problems.append(f"substation {sub.id}: empty bus list")
        for bus_id in sub.buses:
            owner.setdefault(bus_id, []).append(sub.id)
            if bus_id not in grid_buses:
                problems.append(f"substation {sub.id}: unknown bus {bus_id}")
    for bus_id in sorted(grid_buses):
        subs = owner.get(bus_id, [])
        if len(subs) != 1:
            problems.append(
                f"bus {bus_id}: must belong to exactly one substation, found {sorted(subs)}"
            )

    primaries = [s.id for s in network.substations if s.role == ROLE_PRIMARY_CC]
    backups = [s.id for s in network.substations if s.role == ROLE_BACKUP_CC]
    if len(primaries) != 1 or len(backups) != 1:
        problems.append(
            "control-center cardinality: expected exactly one primary and one backup, "
            f"found primaries={primaries} backups={backups}"
        )

    for sub in network.substations:
        for builder, label in (
            (ent.server, "server"),
            (ent.gateway, "gateway"),
            (ent.lan, "LAN link"),
            (ent.battery, "battery"),
        ):
            if builder(sub.id) not in network.registry:
                problems.append(f"substation {sub.id}: missing {label}")
        if not network.rtus.get(sub.id):
            problems.append(f"substation {sub.id}: no RTU")
        pmu_count = len(network.pmus.get(sub.id, []))
        if sub.has_pmu and pmu_count == 0:
            problems.append(f"substation {sub.id}: flagged for PMU but none registered")
        if not sub.has_pmu and pmu_count > 0:
            problems.append(f"substation {sub.id}: PMUs registered without placement flag")

    for ring in (network.sadm_ring, network.oadm_ring):
        nodes = set(range(1, ring.node_count + 1))
        degree = {n: 0 for n in nodes}
        for a, b in ring.edges:
            if a not in nodes or b not in nodes:
                problems.append(f"{ring.kind} ring: link ({a},{b}) references unknown node")
                continue
            degree[a] += 1
            degree[b] += 1
        if ring.node_count >= 3:
            if any(d != 2 for d in degree.values()) or len(ring.edges) != ring.node_count:
                problems.append(f"{ring.kind} ring: links do not form a single cycle")
            elif not _is_single_cycle(nodes, ring.edges):
                problems.append(f"{ring.kind} ring: links split into multiple cycles")

    # Rule sets share tuples (a synthesized network's four hold one cascade tuple, each case's
    # two one availability tuple): check each distinct tuple once, under the first holding it.
    checked_rules, checked_paths = set(), set()
    paths = data_paths(network.substations)
    for (model, case), rule_set in sorted(network.rule_sets.items()):
        found = []
        if id(rule_set.rules) not in checked_rules:
            checked_rules.add(id(rule_set.rules))
            found += reference_problems(rule_set.rules, network.slots, network.slots)
        if id(rule_set.availability) not in checked_paths:
            checked_paths.add(id(rule_set.availability))
            found += availability_gaps(rule_set.availability, network.substations)
            found += reference_problems(rule_set.availability, network.slots, paths)
        problems += [f"{model}/case{case}: {problem}" for problem in found]
    return problems


def data_paths(substations: Sequence[Substation]) -> Dict[EntityId, Tuple[int, Tuple[int, ...]]]:
    """Each substation's data paths, the entities an availability rule may
    target: ``GS(s)`` clears mask 0 (SCADA) and ``GP(s)`` mask 1 (PMU), each
    at a copy of the substation's buses."""
    paths = (ent.gw_scada, ent.gw_pmu)
    return {path(sub.id): (mask, tuple(sub.buses)) for sub in substations for mask, path in enumerate(paths)}


def availability_gaps(availability: Sequence[IdrRule], substations: Sequence[Substation]) -> List[str]:
    """One line per substation that ``availability`` holds no ``GS(s)`` rule for."""
    targets = {rule.target for rule in availability}
    missing = [sub.id for sub in substations if ent.gw_scada(sub.id) not in targets]
    return [f"no availability rules for substation {sub_id}" for sub_id in missing]


def reference_problems(
    rules: Sequence[IdrRule], slots: Dict[EntityId, int], targets: Container[EntityId]
) -> List[str]:
    """Why ``rules`` cannot be compiled over ``slots``, one line per fault: a
    duplicate target, a target outside ``targets`` (cascade rules go with the
    slots, availability rules with ``data_paths``), or an unregistered
    literal."""
    outside = "not registered" if targets is slots else "is not a data path of a known substation"
    problems: List[str] = []
    seen = set()
    for rule in rules:
        if rule.target in seen:
            problems.append(f"duplicate rule for {rule.target}")
        seen.add(rule.target)
        if rule.target not in targets:
            problems.append(f"rule target {rule.target} {outside}")
        # Sort only the unregistered few: sorting every literal dominated validate.
        for entity in sorted(e for e in rule.literals if e not in slots):
            problems.append(f"rule for {rule.target} references unknown entity {entity}")
    return problems


def _is_single_cycle(nodes, edges) -> bool:
    adjacency: Dict[int, List[int]] = {n: [] for n in nodes}
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    start = next(iter(nodes))
    seen = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        for nxt in adjacency[current]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen == set(nodes)
