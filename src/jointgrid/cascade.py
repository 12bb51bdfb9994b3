"""Synchronous fixpoint cascade over a rule set.

Every entity starts at full operation; attacked entities are clamped to 0
for the whole run.  Each time step re-evaluates every dependent entity's
rule against the previous step's state simultaneously and records what
fell; the run stops at the first step that changes nothing.  Values only
fall: each reading computes the monotone min-AND, max-OR and new-XOR
exactly (``ternary``'s two-bit lemma) and is at most top, the state starts
at top, and a step lowers a slot only to its rule's value, so by induction
no rule's value exceeds its unclamped target's level.  Each reading yields
levels {0, 1, 2}, so each slot falls at most twice and a trace has at most
``2n + 1`` steps for ``n`` slots.  The state holds a level per slot of the
network's slot map, a byte each.  A trace keeps each step's changes as
``{slot: level}`` and the fixpoint as immutable ``bytes``, from which every
earlier step can be replayed; it is itself its fixpoint as an entity ->
level mapping (``final_state()``).

After a run, availability rules turn the fixpoint into a per-bus mask of
which buses still deliver SCADA and PMU measurements to a control center.
They are rules like the cascade's, each on a substation's data path
(``GS(s)`` for SCADA, ``GP(s)`` for PMU), evaluated at the fixpoint rather
than iterated: a mask starts from the full-operation flags, evaluates only
the rules that read a failed slot (one of a trace's ``lowered``, built as
the cascade steps, now at 0; see below), and records the buses they clear
as its lost sets.  A mask makes its flag maps
only when first read, sharing the full-operation map of a kind nothing
cleared, and every mask of one availability program shares one bus set, so
``footprint_diff`` checks that two masks cover the same buses by identity
before it compares the sets.

Both kinds of rule run through one program class and one evaluator: each
rule is compiled on first need, over the network's slot map, to a function
``f(a)`` of a state array, and kept; rules of one shape share one code
object (``idr.compile_expr``).  A program class's ``readings`` names the
reading (see ``idr``) each model's rules compile in: IIM's is ``BINARY``, so
no binary rule tree exists at run time, and a mask asks only whether a path
is at ``>= 1``, so MIIM's data-path rules compile in ``DELIVERY``, the
``>= 1`` half of ``LEVELS``.  Cascades run in ``LEVELS`` under both
models, since IIM's cascade is the top bit of MIIM's (below), so only
``verify_fixpoint`` compiles cascade rules in ``BINARY``.  A program maps
each rule to its target (a cascade rule's slot; a data-path rule's mask and
buses, from ``network.data_paths``) and each slot to the rules that read
it.  A network's slot map is fixed when it is made, and each network keeps one
program per class and immutable rules tuple, so a program cannot go stale
and dies with its network.  A synthesized network's four rule sets hold one
rules tuple and a case's two models one availability tuple, so only the
compiled functions are per model; the tests check them against an
interpretive evaluator of their own.
A cascade program also keeps the kill set of its latest cascade, its
trace and, made on first request, that trace's IIM projection, and a
cascade of that kill set under either model returns the kept trace.  The
two channel cases differ only in their data-path rules, so a kill set asked
for under all four rule sets, in any order, is cascaded once per rules
tuple and each model's two cases share its trace.
A program checks its rules' references through the lookups it makes
anyway; only a refused rule set is walked again, by
``network.reference_problems``, to word the error as ``validate`` does.

IIM's cascade is the top-bit projection of MIIM's.  By the two-bit lemma
(``ternary``) a rule's ``BINARY`` reading at a state's top bits (level 2 as
1) is the top bit of its ``LEVELS`` reading at the state.  Both cascades
start at top with the same entities at 0, so by induction IIM's state
after every synchronous step is ``[level == 2]`` of MIIM's after the same
step.  So an IIM trace is read off the MIIM trace: step 1 is the kill set;
step k > 1 holds, at 0, the slots MIIM's step k takes from 2; the trace
ends before the first MIIM step that takes no slot from 2, since IIM's
state is then a fixpoint; its fixpoint is MIIM's read as top bits, and its
``lowered`` is MIIM's, below 1 under IIM being below 2 under MIIM.

Why IIM loses a superset of what MIIM loses, for every kill set (the
paper's claim), with ``proj(s)`` a state read as binary (level ``>= 1`` as
1): (1) per rule, IIM's reading at ``proj(s)`` is at most ``proj`` of
MIIM's reading at ``s``: by the two-bit lemma that bit is ``DELIVERY``,
which reads new-XOR as OR where ``BINARY`` reads AND; (2) by the projection,
IIM's state at every step, up to both fixpoints, is ``[MIIM == 2] <=
[MIIM >= 1]``, ``proj`` of MIIM's; (3) so by monotone rules and (1) a
data-path rule below 1 under MIIM is 0 under IIM.  And a mask reads only
failed slots: data-path rules see only ``>= 1`` bits and are at top at full
operation, so one that reads no slot at 0 is at top.  The tests check the
lemma, (1), (2), the projection and the mask rule on compiled rules and on
the 14-bus N-1 family.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from jointgrid.entities import EntityId, gw_pmu
from jointgrid.grid import first_five
from jointgrid.idr import BINARY, DELIVERY, IIM, LEVELS, MIIM, IdrRule, Reading, compile_expr
from jointgrid.network import JointNetwork, RuleSet, availability_gaps, data_paths, reference_problems


RuleFn = Callable[[Sequence[int]], int]  # a compiled rule: its value at a state array
_TOP = {MIIM: 2, IIM: 1}  # each model's full-operation level
_TOP_BITS = bytes((0, 0, 1)) + bytes(253)  # a level's top bit, as a bytes.translate table


class ScenarioError(ValueError):
    """Scenario references entities outside the registry."""


@dataclass(frozen=True)
class FailureScenario:
    killed: FrozenSet[EntityId]
    label: str = ""

    @staticmethod
    def of(killed: Iterable[EntityId], label: str = "") -> "FailureScenario":
        return FailureScenario(frozenset(killed), label)


@dataclass(eq=False)
class CascadeTrace(Mapping[EntityId, int]):
    """Per-step changes T1..Tn (T1: the attacked entities at 0), each as
    ``{slot: level}`` in slot order, and the fixpoint Tn.

    The trace is itself its fixpoint as a read-only mapping of entity ->
    level: keys iterate in the canonical entity order, an unregistered
    entity raises ``KeyError``, and ``lowered`` holds the slots below the
    top level: values only fall, so those some step changed.  A trace may
    be returned to every caller that cascades its kill set under its model
    and rules (see ``run_cascade``), so it is shared: read it, never change
    it.
    """

    slots: Dict[EntityId, int]
    top: int  # the cascade's model's top level
    fixpoint: bytes  # one level per slot
    changed: List[Dict[int, int]]
    lowered: FrozenSet[int]

    @property
    def converged_at(self) -> int:
        return len(self.changed)

    def final_state(self) -> "CascadeTrace":
        """The fixpoint as a mapping: the trace itself.  Only the benchmark
        workloads (``perfbench/workloads.py``) still call it."""
        return self

    def __getitem__(self, entity: EntityId) -> int:
        return self.fixpoint[self.slots[entity]]

    def __iter__(self) -> Iterator[EntityId]:
        return iter(self.slots)

    def __len__(self) -> int:
        return len(self.slots)


class _Functions(dict):
    """Rules compiled in one reading: ``fns[i]`` is rule i's
    function ``f(a)`` of a state array, compiled on first lookup and kept.

    A single cascade touches only the rules downstream of its kill set, so a
    one-off run does not pay for compiling all of them.  ``len(fns)`` is the
    number of rules compiled so far and ``fns.seconds`` the time they took
    in ``compile_expr``.
    """

    def __init__(self, rules: Sequence[IdrRule], slots: Dict[EntityId, int], reading: Reading):
        super().__init__()
        self.rules, self.slots, self.reading = rules, slots, reading
        self.seconds = 0.0

    def __missing__(self, index: int) -> RuleFn:
        start = time.perf_counter()
        fn = self[index] = compile_expr(self.rules[index].body, self.slots, self.reading)
        self.seconds += time.perf_counter() - start
        return fn


class _Program:
    """One rules tuple over one slot map: per rule ``targets[rule.target]``
    (``targets``), per slot the rules that read it (``readers``), and each
    model's functions in ``readings[model]`` (``fns[model]``).  A cascade
    rule's target is its slot.  A cascade program cascades in ``LEVELS``
    only, and compiles ``BINARY`` functions only for ``verify_fixpoint``; it
    keeps its latest kill set, trace and IIM projection (``latest``)."""

    label = "cascade rules"
    readings: Mapping[str, Reading] = {MIIM: LEVELS, IIM: BINARY}

    def __init__(self, rules: Tuple[IdrRule, ...], slots: Dict[EntityId, int], targets: Mapping):
        self.rules = rules  # also keeps this tuple's id() from being reused
        self.readers: Dict[int, List[int]] = {}
        try:
            self.targets = [targets[rule.target] for rule in rules]
            for index, rule in enumerate(rules):
                for entity in rule.literals:
                    self.readers.setdefault(slots[entity], []).append(index)
            refused = len({rule.target for rule in rules}) < len(rules)
        except KeyError:
            refused = True
        if refused:
            problems = reference_problems(rules, slots, targets)
            raise ScenarioError(f"{self.label}: {'; '.join(problems[:5])}")
        self.fns = {model: _Functions(rules, slots, reading) for model, reading in self.readings.items()}
        self.latest: Optional[List] = None  # [kill set, LEVELS trace, its top bit or None]


class _AvailabilityProgram(_Program):
    """A program of data-path rules over one network, each rule's target the
    mask it clears (0 SCADA, 1 PMU) and its substation's buses that mask flags
    at full operation, plus ``full``, the full-operation mask."""

    label = "availability rules"
    readings = {MIIM: DELIVERY, IIM: BINARY}

    def __init__(self, rules: Tuple[IdrRule, ...], network: JointNetwork):
        gaps = availability_gaps(rules, network.substations)
        if gaps:
            raise ScenarioError(f"{self.label}: {'; '.join(gaps[:5])}")
        super().__init__(rules, network.slots, data_paths(network.substations))
        # At full operation every rule is at top, so every path delivers.
        subs, held = network.substations, {rule.target for rule in rules}
        scada = {bus: True for sub in subs for bus in sub.buses}
        flags = (scada, {bus: sub.has_pmu and gw_pmu(sub.id) in held for sub in subs for bus in sub.buses})
        self.targets = [(mask, tuple(filter(flags[mask].get, buses))) for mask, buses in self.targets]
        equipped = frozenset(bus for sub in subs if sub.has_pmu for bus in sub.buses)
        self.full = AvailabilityMask(*map(MappingProxyType, flags), equipped)


# Compiled programs per network (whose slot map is fixed), each under its
# class and the id() of the rules tuple it is compiled from, an immutable
# object (a tuple may be given as both kinds).  A program holds that tuple,
# so no id() is reused while its entry stands, and never the network, so a
# network's programs die with it.
_PROGRAMS: "weakref.WeakKeyDictionary[JointNetwork, dict]" = weakref.WeakKeyDictionary()


def _programs(network: JointNetwork, rule_set: RuleSet) -> Tuple[_Program, _AvailabilityProgram]:
    """``rule_set``'s cascade and availability programs over ``network``,
    built on first need, the cascade rules first."""
    programs = _PROGRAMS.get(network)  # setdefault would make a weakref per call
    if programs is None:
        programs = _PROGRAMS[network] = {}
    rules, paths = rule_set.rules, rule_set.availability
    cascade = programs.get((_Program, id(rules)))
    if cascade is None:
        cascade = programs[_Program, id(rules)] = _Program(rules, network.slots, network.slots)
    availability = programs.get((_AvailabilityProgram, id(paths)))
    if availability is None:
        availability = programs[_AvailabilityProgram, id(paths)] = _AvailabilityProgram(paths, network)
    return cascade, availability


def run_cascade(
    network: JointNetwork,
    rule_set: RuleSet,
    scenario: FailureScenario,
) -> CascadeTrace:
    """Run the synchronous cascade to its fixpoint.

    Under either model only the ``LEVELS`` cascade runs: an IIM trace is
    the top-bit projection of the MIIM trace (see above), made on first
    request.  The cascade program keeps the kill set it last cascaded, that
    trace and its projection, and a cascade of that kill set under either
    model returns the kept trace; only a successful cascade is kept.
    """
    program = _programs(network, rule_set)[0]
    latest = program.latest
    if latest is None or latest[0] != scenario.killed:
        trace = _levels_cascade(program, network.slots, scenario.killed)
        latest = program.latest = [frozenset(scenario.killed), trace, None]
    if rule_set.model == MIIM:
        return latest[1]
    if latest[2] is None:
        latest[2] = _top_bit(latest[1])
    return latest[2]


def _levels_cascade(program: _Program, slots: Dict[EntityId, int], killed: FrozenSet[EntityId]) -> CascadeTrace:
    """The cascade of ``killed`` under ``program``'s rules read in ``LEVELS``."""
    if not slots.keys() >= killed:
        unknown = [e for e in sorted(killed) if e not in slots]
        raise ScenarioError(f"killed entities not in registry ({len(unknown)}): {first_five(unknown)}")

    state = bytearray((_TOP[MIIM],)) * len(slots)
    killed_slots = {slots[e] for e in killed}
    for slot in killed_slots:
        state[slot] = 0

    changed_per_step: List[Dict[int, int]] = [dict.fromkeys(sorted(killed_slots), 0)]

    frontier: Set[int] = set(killed_slots)
    lowered = set(killed_slots)
    targets, readers, fns = program.targets, program.readers, program.fns[MIIM]

    while frontier:
        candidates: Set[int] = set()
        for slot in frontier:
            candidates.update(readers.get(slot, ()))
        updates: Dict[int, int] = {}
        for rule_index in candidates:  # a step reads only the previous state
            target_slot = targets[rule_index]
            if target_slot in killed_slots:
                continue
            value = fns[rule_index](state)
            if value < state[target_slot]:
                updates[target_slot] = value
        if not updates:
            break
        for slot, value in updates.items():
            state[slot] = value
        changed_per_step.append(dict(sorted(updates.items())))
        frontier = set(updates)
        lowered |= frontier

    return CascadeTrace(slots, _TOP[MIIM], bytes(state), changed_per_step, frozenset(lowered))


def _top_bit(levels: CascadeTrace) -> CascadeTrace:
    """The IIM trace of ``levels``' kill set: ``levels`` read at every step
    as its top bit.  Step 1 is the kill set; each later step holds, at 0,
    the slots that fall from 2 there, and the trace ends before the first
    step where none does.  Below 1 under IIM is below 2 under MIIM, so
    ``lowered`` is the same set."""
    changed, reduced = [levels.changed[0]], set()
    for step in levels.changed[1:]:
        fell = {slot: 0 for slot, value in step.items() if value or slot not in reduced}
        if not fell:
            break
        changed.append(fell)
        reduced.update(slot for slot, value in step.items() if value)
    return CascadeTrace(levels.slots, _TOP[IIM], levels.fixpoint.translate(_TOP_BITS), changed, levels.lowered)


def verify_fixpoint(network: JointNetwork, rule_set: RuleSet, trace: CascadeTrace) -> bool:
    """Dense re-evaluation of every rule at the final state changes nothing.

    Clamped (attacked) targets are exempt: they hold 0 regardless of what
    their rules would compute.
    """
    program = _programs(network, rule_set)[0]
    fns = program.fns[rule_set.model]
    state = trace.fixpoint
    killed_slots = trace.changed[0]
    for rule_index, target_slot in enumerate(program.targets):
        if target_slot in killed_slots:
            continue
        if fns[rule_index](state) != state[target_slot]:
            return False
    return True


@dataclass(init=False)
class AvailabilityMask:
    """Per-bus SCADA/PMU delivery flags at a cascade fixpoint.

    ``pmu`` is false both for undelivered PMU data and for buses whose
    substation has no PMU at all; ``pmu_equipped`` separates the two.

    The flag maps are read-only: a map is copied, a read-only view kept.
    A mask from ``data_availability`` records its lost sets (SCADA, PMU),
    the buses its rules cleared and its program's full-operation mask, and
    makes each flag map when first read: the full-operation map, shared,
    if it cleared no bus of that kind.  Any other mask scans its lost sets
    from the flags on first need, and again after an assignment.
    """

    scada: Mapping[int, bool]
    pmu: Mapping[int, bool]
    pmu_equipped: FrozenSet[int] = frozenset()

    def __init__(self, scada, pmu, pmu_equipped=frozenset()):
        self.scada, self.pmu, self.pmu_equipped = scada, pmu, pmu_equipped

    def __setattr__(self, name, value):
        if name in ("scada", "pmu") and type(value) is not MappingProxyType:
            value = MappingProxyType(dict(value))
        vars(self)[name] = value
        vars(self).pop("_lost", None)
        vars(self).pop("_buses", None)

    def __getattr__(self, name):
        # Only a mask from data_availability lacks a flag map: one it has not made yet.
        if name not in ("scada", "pmu") or "_cleared" not in vars(self):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        flags, cleared = getattr(vars(self)["_full"], name), vars(self)["_cleared"][name == "pmu"]
        vars(self)[name] = flags = MappingProxyType(flags | dict.fromkeys(cleared, False)) if cleared else flags
        return flags

    @cached_property
    def _lost(self) -> Tuple[FrozenSet[int], FrozenSet[int]]:
        scada = frozenset(bus for bus, ok in self.scada.items() if not ok)
        return scada, frozenset(bus for bus in self.pmu_equipped if not self.pmu[bus])

    @cached_property
    def _buses(self) -> FrozenSet[int]:
        return frozenset(self.scada)

    def scada_lost(self) -> FrozenSet[int]:
        return self._lost[0]

    def pmu_lost(self) -> FrozenSet[int]:
        """Buses in PMU-equipped substations whose PMU data is not delivered."""
        return self._lost[1]


def data_availability(trace: CascadeTrace, network: JointNetwork, rule_set: RuleSet) -> AvailabilityMask:
    """Evaluate the availability rules at a cascade's fixpoint.

    A substation's buses deliver SCADA (or PMU) data when the matching
    data-path rule evaluates to at least reduced operation.  Buses in
    substations without PMUs never deliver PMU data.  ``trace`` must come
    from a cascade on ``network`` under a rule set of ``rule_set``'s model.

    Only the rules that read a failed slot, one of ``trace.lowered`` now
    at 0, are evaluated, and the buses they clear recorded as the mask's
    lost sets: any other rule is at top, as at full operation.  The mask's
    flag maps are made when first read.
    """
    if not (isinstance(trace, CascadeTrace) and trace.slots is network.slots):
        raise ValueError("final state was not produced by a cascade on this network")
    if trace.top != _TOP[rule_set.model]:
        raise ValueError(
            f"final state has top level {trace.top}, not that of the {rule_set.model} rule set"
        )
    program = _programs(network, rule_set)[1]
    fns, state, full, cleared = program.fns[rule_set.model], trace.fixpoint, program.full, (set(), set())
    for index in {i for slot in trace.lowered if not state[slot] for i in program.readers.get(slot, ())}:
        if not fns[index](state):
            mask, buses = program.targets[index]
            cleared[mask].update(buses)
    (scada, pmu), (scada_lost, pmu_lost) = cleared, full._lost
    lost = (scada_lost.union(scada) if scada else scada_lost, pmu_lost.union(pmu) if pmu else pmu_lost)
    mask = AvailabilityMask.__new__(AvailabilityMask)
    vars(mask).update(pmu_equipped=full.pmu_equipped, _lost=lost, _cleared=cleared, _full=full, _buses=full._buses)
    return mask


@dataclass
class FootprintDiff:
    """Per-kind buses lost under one mask but not the other."""

    scada_only_a: FrozenSet[int] = frozenset()
    scada_only_b: FrozenSet[int] = frozenset()
    pmu_only_a: FrozenSet[int] = frozenset()
    pmu_only_b: FrozenSet[int] = frozenset()


def footprint_diff(mask_a: AvailabilityMask, mask_b: AvailabilityMask) -> FootprintDiff:
    """Which buses lose measurements under exactly one of two masks."""
    buses_a, buses_b = mask_a._buses, mask_b._buses
    if buses_a is not buses_b and buses_a != buses_b:
        raise ValueError("availability masks cover different bus sets")
    lost_a, lost_b = mask_a.scada_lost(), mask_b.scada_lost()
    pmu_a, pmu_b = mask_a.pmu_lost(), mask_b.pmu_lost()
    return FootprintDiff(
        scada_only_a=lost_a - lost_b,
        scada_only_b=lost_b - lost_a,
        pmu_only_a=pmu_a - pmu_b,
        pmu_only_b=pmu_b - pmu_a,
    )
