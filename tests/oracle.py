"""The interpretive rule evaluator: the tests' reference for the compiled rules.

The package evaluates rules only by compiling them, and its rule trees are
ternary only.  This module reads a rule tree directly, as its operators
say, and shares no code with the compiler: it spells out its own binary
reading of the ternary operators (``translate_to_iim``), into binary trees
of its own (``BinaryOp`` and ``BinaryRule``, Boolean AND and OR on
{0, 1}), and its own folds.

``evaluate`` takes each entity's value as an int or as a 1-D integer numpy
column of S states, and then yields one value per state, so one call per
tree checks a whole batch of states.  A scalar state is the case S = 1.

A synthesized network's IIM rule sets hold the ternary rules of its MIIM
rule sets, and the compiler reads them as binary; ``read`` gives the binary
trees that reading stands for.

Beside the evaluator the module holds the tests' other helpers on rules and
traces:

- the binary model's scalar kernel, ``binary_and``, ``binary_or``,
  ``to_binary`` and ``check_binary`` over ``BINARY_LEVELS``;
- ``format_binary`` and ``format_idr_file``, the reference texts of a
  binary tree and of a list of rules;
- ``registry_payload``, network.json's registry as one object per entity,
  the reference for ``cli.registry_text``;
- ``free_entities``, a rule's or an expression's set of literals;
- ``reference_literals``, ``reference_format_expr`` and
  ``reference_expr_source``, the references for ``IdrRule.literals``,
  ``idr.format_expr`` and ``idr._expr_source``: an explicit stack walk and
  recursions that dispatch on ``isinstance``, ``LEVELS``' two bits by two
  separate walks;
- ``arrays`` and ``named_steps``, a trace's replayed states and its steps
  keyed by entity text;
- ``binary_cascade``, the cascade run directly in ``BINARY``: the
  reference for ``run_cascade``'s IIM traces, which it projects from the
  ``LEVELS`` cascade;
- ``rule_of``, ``paths_of`` and ``columns``, lookups for an entity's
  cascade rule, a substation's data-path rules and the entity columns of
  state arrays.
"""

import weakref
from dataclasses import dataclass
from functools import reduce

import numpy as np

from jointgrid.cascade import CascadeTrace, _programs
from jointgrid.entities import EntityId, gw_pmu, gw_scada
from jointgrid.idr import IIM, MIIM, OP_MAX_OR, OP_MIN_AND, OP_NEW_XOR, Op, format_idr
from jointgrid.network import RuleSet
from jointgrid.ternary import FAILED, REDUCED, TERNARY_LEVELS, check_ternary

BINARY_LEVELS = (0, 1)
BOOL_AND = "bool_and"
BOOL_OR = "bool_or"
_BINARY_SYMBOL = {BOOL_AND: ".", BOOL_OR: "+"}
_TERNARY_SYMBOL = {OP_MIN_AND: "&", OP_MAX_OR: "|", OP_NEW_XOR: "^"}

# Each ternary operator's binary image: min-AND and new-XOR become AND,
# max-OR becomes OR.
_BINARY_IMAGE = {OP_MIN_AND: BOOL_AND, OP_MAX_OR: BOOL_OR, OP_NEW_XOR: BOOL_AND}


@dataclass(frozen=True)
class BinaryOp:
    """A binary-model operator node: Boolean AND or OR over its children."""

    op: str
    children: tuple


@dataclass(frozen=True)
class BinaryRule:
    """A binary-model rule: ``target``'s level as a tree of ``BinaryOp``s."""

    target: EntityId
    body: object


class UnknownEntityError(KeyError):
    """Expression references an entity absent from the evaluation state."""

    def __init__(self, entity: EntityId):
        super().__init__(str(entity))
        self.entity = entity

    def __str__(self):
        return f"unknown entity {self.entity}"


def _unanimous(*values):
    first = values[0]
    agree = reduce(np.logical_and, [value == first for value in values[1:]])
    return np.where(agree, first, REDUCED)


_FOLDS = {
    OP_MIN_AND: lambda *values: reduce(np.minimum, values),
    OP_MAX_OR: lambda *values: reduce(np.maximum, values),
    OP_NEW_XOR: _unanimous,
    BOOL_AND: lambda *values: reduce(np.bitwise_and, values),
    BOOL_OR: lambda *values: reduce(np.bitwise_or, values),
}


def check_binary(value):
    if value not in BINARY_LEVELS:
        raise ValueError(f"not a binary operational level: {value!r}")
    return value


def binary_and(a, b):
    """Boolean conjunction on {0, 1}."""
    return check_binary(a) & check_binary(b)


def binary_or(a, b):
    """Boolean disjunction on {0, 1}."""
    return check_binary(a) | check_binary(b)


def to_binary(level):
    """Project a ternary level onto {0, 1}: reduced operation counts as operational."""
    return 0 if check_ternary(level) == FAILED else 1


def evaluate(expr, state):
    """Bottom-up evaluation of an expression against an entity-state map.

    Each value of ``state`` is an int or a 1-D integer numpy column of S
    states; the result is the expression's value at each state.  Every
    operand of an operator must hold levels of the operator's model, in
    every entry, or ``ValueError`` is raised.
    """
    if isinstance(expr, EntityId):
        try:
            return np.asarray(state[expr])
        except KeyError:
            raise UnknownEntityError(expr) from None
    values = [evaluate(child, state) for child in expr.children]
    binary = isinstance(expr, BinaryOp)
    model, levels = ("binary", BINARY_LEVELS) if binary else ("ternary", TERNARY_LEVELS)
    for value in values:
        # Levels are the integers 0..top: an integer column in that range
        # holds levels only, and any other is checked entry by entry.
        if value.dtype.kind in "iu" and value.min() >= levels[0] and value.max() <= levels[-1]:
            continue
        for entry in np.ravel(value).tolist():
            if entry not in levels:
                raise ValueError(f"not a {model} operational level: {entry!r}")
    return _FOLDS[expr.op](*values)


def translate_to_iim(rule):
    """Rewrite a ternary-model rule into its binary-model counterpart.

    min-AND and new-XOR become Boolean AND, max-OR becomes Boolean OR; the
    tree shape and every literal are preserved.
    """
    return BinaryRule(rule.target, _translate_expr(rule.body))


def _translate_expr(expr):
    if isinstance(expr, EntityId):
        return expr
    return BinaryOp(_BINARY_IMAGE[expr.op], tuple(_translate_expr(c) for c in expr.children))


def format_binary(expr):
    """Canonical text of a binary tree, every operator child parenthesized."""
    if isinstance(expr, EntityId):
        return str(expr)
    parts = [f"({format_binary(c)})" if isinstance(c, BinaryOp) else format_binary(c) for c in expr.children]
    return f" {_BINARY_SYMBOL[expr.op]} ".join(parts)


def rule_of(rule_set, target):
    """The cascade rule of ``target`` in ``rule_set``."""
    return next(rule for rule in rule_set.rules if rule.target == target)


def paths_of(rule_set, sub_id):
    """Substation ``sub_id``'s SCADA and PMU data-path rules in ``rule_set``,
    the PMU rule None when there is none."""
    rules = {rule.target: rule for rule in rule_set.availability}
    return rules[gw_scada(sub_id)], rules.get(gw_pmu(sub_id))


def columns(entities, states):
    """Each entity's column of values over the state arrays ``states``,
    which list the entities' values in the order of ``entities``."""
    return dict(zip(entities, np.array(states, dtype=np.int64).T))


_READ: "weakref.WeakKeyDictionary[RuleSet, RuleSet]" = weakref.WeakKeyDictionary()


def read(rule_set):
    """``rule_set`` with every rule as its model reads it: under IIM, each
    rule's ``translate_to_iim``, translated once per rule set."""
    if rule_set.model != IIM:
        return rule_set
    found = _READ.get(rule_set)
    if found is None:
        rules = [translate_to_iim(rule) for rule in rule_set.rules]
        availability = [translate_to_iim(rule) for rule in rule_set.availability]
        found = _READ[rule_set] = RuleSet(IIM, rule_set.case, rules, availability)
    return found


def free_entities(rule_or_expr):
    """All entity literals appearing in a rule body or expression, ternary
    or binary."""
    stack, found = [getattr(rule_or_expr, "body", rule_or_expr)], set()
    while stack:
        node = stack.pop()
        if isinstance(node, EntityId):
            found.add(node)
        else:
            stack.extend(node.children)
    return frozenset(found)


def reference_literals(body):
    """A rule body's distinct entity literals, left to right, by an explicit
    stack that pushes each node's children right to left."""
    literals, stack = {}, [body]
    while stack:
        node = stack.pop()
        if isinstance(node, EntityId):
            literals[node] = None
        else:
            stack.extend(reversed(node.children))
    return tuple(literals)


def reference_format_expr(expr, names=None):
    """Canonical text of a ternary rule body, every operator child
    parenthesized, an entity named by its entry in ``names`` or ``str``."""
    if isinstance(expr, EntityId):
        return (names or {}).get(expr) or str(expr)
    parts = []
    for child in expr.children:
        text = reference_format_expr(child, names)
        parts.append(f"({text})" if isinstance(child, Op) else text)
    return f" {_TERNARY_SYMBOL[expr.op]} ".join(parts)


def reference_expr_source(expr, slots, reading, fill):
    """Source of ``expr`` in ``reading``, its k-th literal as ``a[ik]``,
    appending each literal's slot to ``fill``, left to right.  A bare
    literal is ``a[i0]``.  A Boolean reading joins each operator's operands
    by its joiner; the pair of readings ``LEVELS`` is ``2 if <top> else 1
    if <low> else 0``, where ``<top>`` reads the first table over the
    literals ``a[ik] == 2`` and ``<low>`` the second over ``a[ik]``, each
    made by a walk of its own."""
    if isinstance(expr, EntityId):
        fill.append(slots[expr])
        return "a[i0]"
    if not isinstance(reading, tuple):
        return _reference_bit_source(expr, slots, reading, "", fill)
    top = _reference_bit_source(expr, slots, reading[0], " == 2", [])
    low = _reference_bit_source(expr, slots, reading[1], "", fill)
    return f"2 if {top} else 1 if {low} else 0"


def _reference_bit_source(expr, slots, joiners, literal, fill):
    """One bit's source of ``expr``: each literal as ``a[ik]`` followed by
    ``literal``, each operator's operands joined by its entry in
    ``joiners``, in parentheses."""
    if isinstance(expr, EntityId):
        fill.append(slots[expr])
        return f"a[i{len(fill) - 1}]{literal}"
    parts = [_reference_bit_source(child, slots, joiners, literal, fill) for child in expr.children]
    return "(" + joiners[expr.op].join(parts) + ")"


def format_idr_file(rules, header=()):
    """Serialize ternary and binary rules to ``.idr`` text, emitting a model
    directive whenever the model changes between consecutive rules."""
    lines = [f"# {note}" for note in header]
    current_model = None
    for rule in rules:
        binary = isinstance(rule, BinaryRule)
        if (IIM if binary else MIIM) != current_model:
            current_model = IIM if binary else MIIM
            lines.append(f"#model: {current_model}")
        lines.append(f"{rule.target} <- {format_binary(rule.body)}" if binary else format_idr(rule))
    return "\n".join(lines) + "\n"


def arrays(trace):
    """Every step's full state of ``trace``, replayed from its changes."""
    state, found = [trace.top] * len(trace.fixpoint), []
    for step in trace.changed:
        for slot, value in step.items():
            state[slot] = value
        found.append(list(state))
    return found


def binary_cascade(network, rule_set, scenario):
    """The synchronous cascade of ``scenario``'s kill set with ``rule_set``'s
    cascade rules read in ``BINARY``: from 1, the attacked entities at 0,
    each step re-evaluates the readers of the slots the step before lowered,
    until a step lowers nothing.  It reads the compiled ``BINARY`` functions
    that ``verify_fixpoint`` reads, which other tests check against
    ``evaluate``, and none of the ``LEVELS`` ones."""
    program, slots = _programs(network, rule_set)[0], network.slots
    killed_slots = {slots[entity] for entity in scenario.killed}
    state = bytearray((1,)) * len(slots)
    for slot in killed_slots:
        state[slot] = 0
    changed, frontier, lowered = [dict.fromkeys(sorted(killed_slots), 0)], set(killed_slots), set(killed_slots)
    fns = program.fns[IIM]
    while frontier:
        candidates = {index for slot in frontier for index in program.readers.get(slot, ())}
        updates = {}
        for index in candidates:
            target = program.targets[index]
            if target not in killed_slots:
                value = fns[index](state)
                if value < state[target]:
                    updates[target] = value
        if not updates:
            break
        for slot, value in updates.items():
            state[slot] = value
        changed.append(dict(sorted(updates.items())))
        frontier = set(updates)
        lowered |= frontier
    return CascadeTrace(slots, 1, bytes(state), changed, frozenset(lowered))


def named_steps(trace, network):
    """``trace``'s steps as ``{entity text: level}``."""
    entities = network.entity_ids()
    return [{str(entities[slot]): value for slot, value in step.items()} for step in trace.changed]


def meta_payload(meta):
    """One registry entry as network.json holds it: the endpoints' texts,
    or None."""
    return {
        "substation": meta.substation,
        "endpoints": None if meta.ends is None else [str(end) for end in meta.ends],
    }


def registry_payload(network):
    """network.json's ``registry`` as a dict of entity text to entry, each
    entity named by ``str``: ``json.dumps(..., indent=2, sort_keys=True)`` of
    it, indented one level deeper, is the registry's text in the file."""
    return {str(entity): meta_payload(meta) for entity, meta in network.registry.items()}
