"""Textual rule language for inter-dependency relations (IDRs).

A rule gives one entity's operational level as an expression over other
entities' levels:

    C(2,1,1,0) <- (C(2,1,2,0) & C(2,2,1,2)) | (C(2,1,6,0) & C(2,2,1,6))

Rule trees are ternary: their operators are ``&`` (min-AND), ``|``
(max-OR) and ``^`` (new-XOR).  A rule body is a tree of operator nodes
(``Op``) over entity ids: each leaf is the ``EntityId`` itself, and a bare
body is a single id.  A rule holds no model; its rule set's model names how
it is read.

``compile_expr`` is the one evaluator: it turns a body into a Python
function of a state array of levels, in one of three readings.  By the
two-bit lemma (``ternary``), ``DELIVERY`` (min-AND, max-OR, new-XOR as AND,
OR, OR) gives a level's ``>= 1`` bit and ``BINARY`` (AND, OR, AND) its top
bit; ``LEVELS``, MIIM's, is that pair.  ``BINARY`` is also IIM's reading
(``verify_fixpoint``'s), so the binary model needs no rules of its own.  At
run time ``DELIVERY`` exists only inside ``LEVELS``, which both models read.

``format_expr`` and ``format_idr`` write a body and a rule as canonical
text, every operator child parenthesized; ``cli`` writes them into the
``.idr`` rule files, and writes an IIM file as the MIIM text under
``IIM_SYMBOLS`` (``.`` for AND, ``+`` for OR).  The package writes rule
files and never reads one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from types import CodeType, FunctionType, MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from jointgrid.entities import EntityId

MIIM = "miim"
IIM = "iim"

OP_MIN_AND = "min_and"
OP_MAX_OR = "max_or"
OP_NEW_XOR = "new_xor"

_OP_SYMBOL = {OP_MIN_AND: "&", OP_MAX_OR: "|", OP_NEW_XOR: "^"}
_JOINERS = {op: f" {symbol} " for op, symbol in _OP_SYMBOL.items()}
# The binary reading on rule text: min-AND and new-XOR as AND (``.``),
# max-OR as OR (``+``).
IIM_SYMBOLS = str.maketrans("&^|", "..+")


class IdrSyntaxError(ValueError):
    """Malformed rule tree: an unknown operator or bad operands."""


@dataclass(frozen=True)
class Op:
    op: str
    children: Tuple["IdrExpr", ...]

    def __post_init__(self):
        if self.op not in _OP_SYMBOL:
            raise IdrSyntaxError(f"unknown operator: {self.op!r}")
        if not isinstance(self.children, tuple) or len(self.children) < 2:
            raise IdrSyntaxError(f"operator {_OP_SYMBOL[self.op]!r} needs a tuple of >=2 operands")
        if not all(map(isinstance, self.children, repeat((EntityId, Op)))):
            child = next(child for child in self.children if not isinstance(child, (EntityId, Op)))
            raise IdrSyntaxError(f"operator {_OP_SYMBOL[self.op]!r}: operand {child!r} is not an expression")


IdrExpr = Union[EntityId, Op]


@dataclass(frozen=True)
class IdrRule:
    target: EntityId
    body: IdrExpr
    # The body's distinct entity literals, left to right: no consumer walks
    # the body again for them.
    literals: Tuple[EntityId, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        literals: Dict[EntityId, None] = {}
        _collect_literals((self.body,), literals)
        object.__setattr__(self, "literals", tuple(literals))


def _collect_literals(children: Tuple[IdrExpr, ...], found: Dict[EntityId, None]) -> None:
    for child in children:
        if type(child) is Op:
            _collect_literals(child.children, found)
        else:
            found[child] = None


# --- Printing ---------------------------------------------------------------


_NO_NAMES: Mapping[EntityId, str] = MappingProxyType({})


def format_expr(expr: IdrExpr, names: Mapping[EntityId, str] = _NO_NAMES) -> str:
    """Canonical text of a rule body; operator children are parenthesized.
    An entity's text is its entry in ``names`` (a writer passes the texts it
    formatted once), else ``str`` of it."""
    if type(expr) is Op:
        return _op_text(expr, names.get)
    return names.get(expr) or str(expr)


def _op_text(op: Op, name: Callable[[EntityId], Optional[str]]) -> str:
    parts = []
    for child in op.children:
        if type(child) is Op:
            parts.append("(" + _op_text(child, name) + ")")
        else:
            parts.append(name(child) or str(child))
    return _JOINERS[op.op].join(parts)


def format_idr(rule: IdrRule, names: Mapping[EntityId, str] = _NO_NAMES) -> str:
    """Canonical rule text, entities named as in ``format_expr``."""
    return f"{format_expr(rule.target, names)} <- {format_expr(rule.body, names)}"


# --- Evaluation --------------------------------------------------------------


_COMPILE_GLOBALS = {"__builtins__": {}}

# A Boolean reading: each operator's operand joiner.  LEVELS: a level's top bit, then its >= 1 bit.
DELIVERY: Mapping[str, str] = {OP_MIN_AND: " and ", OP_MAX_OR: " or ", OP_NEW_XOR: " or "}
BINARY: Mapping[str, str] = {**DELIVERY, OP_NEW_XOR: " and "}
LEVELS = (BINARY, DELIVERY)
Reading = Union[Mapping[str, str], Tuple[Mapping[str, str], Mapping[str, str]]]


def compile_expr(expr: IdrExpr, slots: Dict[EntityId, int], reading: Reading) -> Callable[[Sequence[int]], int]:
    """Compile an expression in ``reading`` to a function ``f(a)`` of a
    state array ``a`` of levels; ``slots`` maps each entity to its array index.
    Under ``LEVELS`` the result is ``2 if <top bit> else 1 if <>= 1 bit> else
    0``, the top bit over literals ``a[ik] == 2``; under ``DELIVERY`` it is
    truthy exactly when the level is ``>= 1``; under ``BINARY`` it is the
    binary level, on {0, 1}.

    Expressions of one shape and reading share one code object: the k-th
    literal reads ``a[ik]``, each function binding its slots as defaults of ``i0, i1, ...``.
    """
    fill: List[int] = []
    source = _expr_source(expr, slots, reading, fill)
    return FunctionType(_shape(source, len(fill)), _COMPILE_GLOBALS, "rule", tuple(fill))


@lru_cache(maxsize=256)
def _shape(source: str, arity: int) -> CodeType:
    """The code of ``def rule(a, i0, ..., i<arity-1>): return <source>``."""
    params = "".join(f", i{k}" for k in range(arity))
    module = compile(f"def rule(a{params}):\n    return {source}\n", "<idr>", "exec")
    return next(const for const in module.co_consts if isinstance(const, CodeType))


def _expr_source(expr: IdrExpr, slots: Dict[EntityId, int], reading: Reading, fill: List[int]) -> str:
    """Source of ``expr`` in ``reading`` with its k-th literal as ``a[ik]``;
    appends each literal's slot to ``fill``, left to right."""
    if type(expr) is not Op:
        fill.append(slots[expr])
        return f"a[i{len(fill) - 1}]"
    if type(reading) is tuple:
        return "2 if %s else 1 if %s else 0" % _levels_source(expr, slots, *reading, fill)
    parts = []
    for child in expr.children:
        if type(child) is Op:
            parts.append(_expr_source(child, slots, reading, fill))
        else:
            fill.append(slots[child])
            parts.append(f"a[i{len(fill) - 1}]")
    return f"({reading[expr.op].join(parts)})"


def _levels_source(op: Op, slots: Dict[EntityId, int], top: Mapping[str, str], low: Mapping[str, str], fill: List[int]):
    """``op``'s top-bit and ``>= 1``-bit sources, in one walk."""
    tops, lows = [], []
    for child in op.children:
        if type(child) is Op:
            top_part, low_part = _levels_source(child, slots, top, low, fill)
        else:
            fill.append(slots[child])
            top_part, low_part = f"a[i{len(fill) - 1}] == 2", f"a[i{len(fill) - 1}]"
        tops.append(top_part)
        lows.append(low_part)
    return f"({top[op.op].join(tops)})", f"({low[op.op].join(lows)})"
