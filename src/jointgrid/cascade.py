"""Synchronous fixpoint cascade over a rule set.

Every entity starts at full operation; attacked entities are clamped to 0
for the whole run.  Each time step re-evaluates every dependent entity's
rule against the previous step's state simultaneously and records what
fell; the run stops at the first step that changes nothing.  A rule whose
value rises stops the run (``MonotonicityError``); values otherwise only
fall, and each reading is closed on the codes {0, 1, 3}, so each slot falls
at most twice and a trace has at most ``2n + 1`` steps for ``n`` slots.
The state is a byte per slot of the network's slot map, its level coded
(``ternary.CODE``) as the compiled rules read it.
A trace keeps each step's changes as ``{slot: level}`` (0 and 1 are their
own codes) and the fixpoint as immutable ``bytes``, from which every
earlier step can be replayed.  The trace is itself its fixpoint as an
entity -> level mapping, decoded: ``final_state()`` returns it.

After a run, availability rules turn the fixpoint into a per-bus mask of
which buses still deliver SCADA and PMU measurements to a control center.
They are rules like the cascade's, each on a substation's data path
(``GS(s)`` for SCADA, ``GP(s)`` for PMU), evaluated at the fixpoint rather
than iterated.  At full operation every data-path rule (literals and
monotone operators only) is at top, so a mask starts from the
full-operation flags, evaluates only the rules that read a slot the
cascade lowered (a trace's ``lowered``, built as the cascade steps), and
records the buses they clear as its lost sets.  A mask makes its flag maps
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
is at ``>= 1``, so MIIM's data-path rules compile in ``DELIVERY``.  A program
maps each rule to its target (a cascade rule's slot; a data-path rule's
mask and buses, from ``network.data_paths``) and each slot to the rules that
read it.  A network's slot map is fixed when it is made, and each network
keeps one program per class and immutable rules tuple, so a program cannot
go stale and dies with its network.  A synthesized network's four rule sets
hold one rules tuple and a case's two models one availability tuple, so
only the compiled functions are per model.  The tests check the compiled functions against an interpretive
evaluator of their own.
A cascade program also keeps, per model, the kill set and trace of its
latest cascade, and a cascade of that kill set under that model returns
the same trace.  The two channel cases differ only in their data-path
rules, so a kill set asked for under case 1 and then case 2 (or the other
way round) is cascaded once per model and both cases share its trace.
A program checks its rules' references through the lookups it makes
anyway; only a refused rule set is walked again, by
``network.reference_problems``, to word the error as ``validate`` does.

Why IIM loses a superset of what MIIM loses, for every kill set (the
paper's claim), with ``proj(s)`` a state read as binary (level ``>= 1`` as
1): (1) per rule, IIM's reading at ``proj(s)`` is at most ``proj`` of
MIIM's reading at ``s``: that bit is ``DELIVERY``, which reads new-XOR as
OR where IIM's ``BINARY`` reads AND, and AND <= OR; (2) both
cascades start at top with the same entities at 0, and if IIM's state is at
most ``proj`` of MIIM's before a step, monotone rules and (1) keep it so
after it, up to both fixpoints; (3) so by (1) and monotonicity a data-path
rule below 1 under MIIM is 0 under IIM: every bus MIIM loses, IIM loses.
The tests check the operator tables, (1) on compiled rules and (2) on every
trace of the 14-bus N-1 family.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Sequence, Set, Tuple

from jointgrid.entities import EntityId, gw_pmu
from jointgrid.idr import BINARY, DELIVERY, IIM, LEVELS, MIIM, IdrRule, Reading, compile_expr
from jointgrid.network import JointNetwork, RuleSet, availability_gaps, data_paths, reference_problems
from jointgrid.ternary import CODE, LEVEL


RuleFn = Callable[[Sequence[int]], int]  # a compiled rule: its value at a state array
_TOP = {MIIM: 2, IIM: 1}  # each model's full-operation level


class MonotonicityError(RuntimeError):
    """An entity's value increased between steps."""


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
    fixpoint: bytes  # levels coded by ternary.CODE
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
        return LEVEL[self.fixpoint[self.slots[entity]]]

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
    rule's target is its slot.  A cascade program keeps each model's latest
    kill set and trace (``latest[model]``)."""

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
        self.latest: Dict[str, Tuple[FrozenSet[EntityId], CascadeTrace]] = {}


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

    The trace of the kill set last cascaded under ``rule_set``'s model and
    cascade rules is kept, and a cascade of that kill set returns it; only
    a successful cascade is kept.
    """
    program = _programs(network, rule_set)[0]
    killed, trace = program.latest.get(rule_set.model, (None, None))
    if killed == scenario.killed:
        return trace
    top, slots = _TOP[rule_set.model], network.slots

    if not slots.keys() >= scenario.killed:
        unknown = [e for e in sorted(scenario.killed) if e not in slots]
        raise ScenarioError(f"killed entities not in registry: {[str(e) for e in unknown]}")

    state = bytearray((CODE[top],)) * len(slots)
    killed_slots = {slots[e] for e in scenario.killed}
    for slot in killed_slots:
        state[slot] = 0

    changed_per_step: List[Dict[int, int]] = [dict.fromkeys(sorted(killed_slots), 0)]

    frontier: Set[int] = set(killed_slots)
    lowered = set(killed_slots)
    targets, readers, fns = program.targets, program.readers, program.fns[rule_set.model]

    while frontier:
        candidates: Set[int] = set()
        for slot in frontier:
            candidates.update(readers.get(slot, ()))
        updates: Dict[int, int] = {}
        for rule_index in sorted(candidates):
            target_slot = targets[rule_index]
            if target_slot in killed_slots:
                continue
            value = fns[rule_index](state)
            old = state[target_slot]
            if value > old:
                entity = network.entity_ids()[target_slot]
                raise MonotonicityError(
                    f"{entity} rose from {LEVEL[old]} to {LEVEL[value]}; rules must be monotone"
                )
            if value < old:
                updates[target_slot] = value
        if not updates:
            break
        for slot, value in updates.items():
            state[slot] = value
        changed_per_step.append(dict(sorted(updates.items())))
        frontier = set(updates)
        lowered |= frontier

    trace = CascadeTrace(slots, top, bytes(state), changed_per_step, frozenset(lowered))
    program.latest[rule_set.model] = (frozenset(scenario.killed), trace)
    return trace


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

    Only the rules that read a slot of ``trace.lowered`` are
    evaluated, and the buses they clear recorded as the mask's lost sets:
    any other rule is at top, as at full operation.  The mask's flag maps
    are made when first read.
    """
    if not (isinstance(trace, CascadeTrace) and trace.slots is network.slots):
        raise ValueError("final state was not produced by a cascade on this network")
    if trace.top != _TOP[rule_set.model]:
        raise ValueError(
            f"final state has top level {trace.top}, not that of the {rule_set.model} rule set"
        )
    program = _programs(network, rule_set)[1]
    fns, state, full, cleared = program.fns[rule_set.model], trace.fixpoint, program.full, (set(), set())
    for index in {i for slot in trace.lowered for i in program.readers.get(slot, ())}:
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
