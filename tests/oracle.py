"""The interpretive rule evaluator: the tests' reference for the compiled rules.

The package evaluates rules only by compiling them.  This module reads a
rule tree directly, as its operators say, and shares no code with the
compiler: it spells out its own binary reading of the ternary operators
(``translate_to_iim``) and its own folds.

``evaluate`` takes each entity's value as an int or as a 1-D integer numpy
column of S states, and then yields one value per state, so one call per
tree checks a whole batch of states.  A scalar state is the case S = 1.

A synthesized network's IIM rule sets hold the ternary rules of its MIIM
rule sets, and the compiler reads them as binary; ``read`` gives the trees
that reading stands for.

Beside the evaluator the module holds the tests' other helpers on rules:

- the binary model's scalar kernel, ``binary_and``, ``binary_or``,
  ``to_binary`` and ``check_binary`` over ``BINARY_LEVELS``;
- ``format_idr_file``, the reference rule-file text of a list of rules;
- ``registry_payload``, network.json's registry as one object per entity,
  the reference for ``cli.registry_text``;
- ``free_entities``, a rule's or an expression's set of literals;
- ``rule_of``, ``paths_of`` and ``columns``, lookups for an entity's
  cascade rule, a substation's data-path rules and the entity columns of
  state arrays.
"""

import weakref
from functools import reduce

import numpy as np

from jointgrid.entities import EntityId, gw_pmu, gw_scada
from jointgrid.idr import (
    IIM,
    OP_BOOL_AND,
    OP_BOOL_OR,
    OP_MAX_OR,
    OP_MIN_AND,
    OP_NEW_XOR,
    IdrModelError,
    IdrRule,
    Op,
    _scan,
    format_idr,
)
from jointgrid.network import RuleSet
from jointgrid.ternary import FAILED, REDUCED, TERNARY_LEVELS, check_ternary

BINARY_LEVELS = (0, 1)

# Each ternary operator's binary image: min-AND and new-XOR become AND,
# max-OR becomes OR.
_BINARY_IMAGE = {OP_MIN_AND: OP_BOOL_AND, OP_MAX_OR: OP_BOOL_OR, OP_NEW_XOR: OP_BOOL_AND}


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
    OP_BOOL_AND: lambda *values: reduce(np.bitwise_and, values),
    OP_BOOL_OR: lambda *values: reduce(np.bitwise_or, values),
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
    binary = expr.op in (OP_BOOL_AND, OP_BOOL_OR)
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


def translate_to_iim(rule: IdrRule) -> IdrRule:
    """Rewrite a ternary-model rule into its binary-model counterpart.

    min-AND and new-XOR become Boolean AND, max-OR becomes Boolean OR; the
    tree shape and every literal are preserved.
    """
    if rule.model == IIM:
        raise IdrModelError("already binary")
    return IdrRule(rule.target, _translate_expr(rule.body), IIM)


def _translate_expr(expr):
    if isinstance(expr, EntityId):
        return expr
    return Op(_BINARY_IMAGE[expr.op], tuple(_translate_expr(c) for c in expr.children))


def rule_of(rule_set, target):
    """The cascade rule of ``target`` in ``rule_set``."""
    return next(rule for rule in rule_set.rules if rule.target == target)


def paths_of(rule_set, sub_id):
    """Substation ``sub_id``'s SCADA and PMU data-path rules in ``rule_set``,
    the PMU rule None when there is none."""
    rules = {rule.target: rule for rule in rule_set.availability}
    return rules[gw_scada(sub_id)], rules.get(gw_pmu(sub_id))


def columns(entities, arrays):
    """Each entity's column of values over the state arrays ``arrays``,
    which list the entities' values in the order of ``entities``."""
    return dict(zip(entities, np.array(arrays, dtype=np.int64).T))


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
    """All entity literals appearing in a rule body or expression."""
    if isinstance(rule_or_expr, IdrRule):
        return frozenset(rule_or_expr.literals)
    return frozenset(_scan(rule_or_expr)[1])


def format_idr_file(rules, header=()):
    """Serialize rules to ``.idr`` text, emitting a model directive whenever
    the model changes between consecutive rules."""
    lines = [f"# {note}" for note in header]
    current_model = None
    for rule in rules:
        if rule.model != current_model:
            lines.append(f"#model: {rule.model}")
            current_model = rule.model
        lines.append(format_idr(rule))
    return "\n".join(lines) + "\n"


def meta_payload(meta):
    """One registry entry as network.json holds it."""
    return {
        "substation": meta.substation,
        "endpoints": list(meta.endpoints) if meta.endpoints else None,
    }


def registry_payload(network):
    """network.json's ``registry`` as a dict of entity text to entry, each
    entity named by ``str``: ``json.dumps(..., indent=2, sort_keys=True)`` of
    it, indented one level deeper, is the registry's text in the file."""
    return {str(entity): meta_payload(meta) for entity, meta in network.registry.items()}
