"""Textual rule language for inter-dependency relations (IDRs).

A rule gives one entity's operational level as an expression over other
entities' levels:

    C(2,1,1,0) <- (C(2,1,2,0) & C(2,2,1,2)) | (C(2,1,6,0) & C(2,2,1,6))

Ternary-model operators: ``&`` (min-AND, tightest), ``|`` (max-OR), ``^``
(new-XOR, loosest), all left-associative.  Binary-model rules use ``.``
(AND) and ``+`` (OR) instead.  Operator nodes are n-ary: unparenthesized
chains of one operator flatten into a single node, while explicit
parentheses are preserved, so ``parse(format(rule))`` reproduces the rule
exactly.

A rule body is a tree of operator nodes (``Op``) over entity ids: each leaf
is the ``EntityId`` itself, and a bare body is a single id.

``compile_expr`` is the one evaluator: it turns a body into a Python
function of a state array, as either model reads it.  Under IIM a ternary
body reads as binary (min-AND and new-XOR as AND, max-OR as OR), so the
binary model needs no rules of its own.

Rule files (``.idr``) hold one rule per line; ``#`` starts a comment and
blank lines are ignored.  A ``#model: miim|iim`` comment line sets the
model for subsequent operator-free rules.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from types import CodeType, FunctionType, MappingProxyType
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Sequence, Set, Tuple, Union

from jointgrid import ternary
from jointgrid.entities import EntityId, EntityError, parse_entity_id

MIIM = "miim"
IIM = "iim"

OP_MIN_AND = "min_and"
OP_MAX_OR = "max_or"
OP_NEW_XOR = "new_xor"
OP_BOOL_AND = "bool_and"
OP_BOOL_OR = "bool_or"

_MIIM_OPS = frozenset({OP_MIN_AND, OP_MAX_OR, OP_NEW_XOR})
_IIM_OPS = frozenset({OP_BOOL_AND, OP_BOOL_OR})

_OP_SYMBOL = {
    OP_MIN_AND: "&",
    OP_MAX_OR: "|",
    OP_NEW_XOR: "^",
    OP_BOOL_AND: ".",
    OP_BOOL_OR: "+",
}
_SYMBOL_OP = {sym: op for op, sym in _OP_SYMBOL.items()}

# Binding strength: higher parses tighter.  ^ is loosest, & / . tightest.
_OP_LEVEL = {
    OP_NEW_XOR: 0,
    OP_MAX_OR: 1,
    OP_BOOL_OR: 1,
    OP_MIN_AND: 2,
    OP_BOOL_AND: 2,
}

_TRANSLATION = {OP_MIN_AND: OP_BOOL_AND, OP_MAX_OR: OP_BOOL_OR, OP_NEW_XOR: OP_BOOL_AND}
# The translation on rule text: each ternary operator symbol to its binary image.
IIM_SYMBOLS = str.maketrans({_OP_SYMBOL[op]: _OP_SYMBOL[image] for op, image in _TRANSLATION.items()})


class IdrSyntaxError(ValueError):
    """Lexical or structural error in rule text."""


class IdrModelError(ValueError):
    """Rule violates the operator discipline of its model."""


@dataclass(frozen=True)
class Op:
    op: str
    children: Tuple["IdrExpr", ...]

    def __post_init__(self):
        if self.op not in _OP_SYMBOL:
            raise IdrSyntaxError(f"unknown operator: {self.op!r}")
        if not isinstance(self.children, tuple) or len(self.children) < 2:
            raise IdrSyntaxError(f"operator {_OP_SYMBOL[self.op]!r} needs a tuple of >=2 operands")
        for child in self.children:
            if not isinstance(child, (EntityId, Op)):
                raise IdrSyntaxError(f"operator {_OP_SYMBOL[self.op]!r}: operand {child!r} is not an expression")


IdrExpr = Union[EntityId, Op]


@dataclass(frozen=True)
class IdrRule:
    target: EntityId
    body: IdrExpr
    model: str
    # The body's distinct entity literals, left to right, found by the
    # operator check's walk: no consumer walks the body again for them.
    literals: Tuple[EntityId, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.model not in (MIIM, IIM):
            raise IdrModelError(f"unknown model: {self.model!r}")
        ops, literals = _scan(self.body)
        allowed = _MIIM_OPS if self.model == MIIM else _IIM_OPS
        if not ops <= allowed:
            raise IdrModelError(
                f"{self.model} rule for {self.target} uses foreign operators: "
                f"{sorted(ops - allowed)}"
            )
        object.__setattr__(self, "literals", tuple(literals))


def _scan(expr: IdrExpr) -> Tuple[Set[str], Dict[EntityId, None]]:
    """The operators of an expression and its distinct literals, left to right."""
    ops: Set[str] = set()
    literals: Dict[EntityId, None] = {}
    stack: List[IdrExpr] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, EntityId):
            literals[node] = None
        else:
            ops.add(node.op)
            stack.extend(reversed(node.children))
    return ops, literals


# --- Lexer -----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<entity>[A-Z]+\s*\(\s*\d+(?:\s*,\s*\d+)*\s*\))
  | (?P<arrow><-)
  | (?P<op>[&|^.+])
  | (?P<lparen>\()
  | (?P<rparen>\))
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            raise IdrSyntaxError(f"unexpected character {text[pos]!r} at position {pos}")
        kind = match.lastgroup
        if kind != "ws":
            tokens.append((kind, match.group(), pos))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: List[Tuple[str, str, int]]):
        self.tokens = tokens
        self.index = 0

    def peek(self):
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def advance(self):
        token = self.peek()
        if token is None:
            raise IdrSyntaxError("unexpected end of input")
        self.index += 1
        return token

    def expect(self, kind: str):
        token = self.peek()
        if token is None or token[0] != kind:
            found = "end of input" if token is None else f"{token[1]!r} at position {token[2]}"
            raise IdrSyntaxError(f"expected {kind}, found {found}")
        return self.advance()

    def parse_expr(self, level: int = 0) -> IdrExpr:
        if level > 2:
            return self.parse_primary()
        operands = [self.parse_expr(level + 1)]
        chain_op = None
        while True:
            token = self.peek()
            if token is None or token[0] != "op":
                break
            op = _SYMBOL_OP[token[1]]
            if _OP_LEVEL[op] != level:  # looser: the operands took every tighter one
                break
            if chain_op is None:
                chain_op = op
            elif op != chain_op:
                raise IdrSyntaxError(
                    f"mixed operators {_OP_SYMBOL[chain_op]!r} and {token[1]!r} "
                    f"in one chain at position {token[2]}; parenthesize"
                )
            self.advance()
            operands.append(self.parse_expr(level + 1))
        if len(operands) == 1:
            return operands[0]
        return Op(chain_op, tuple(operands))

    def parse_primary(self) -> IdrExpr:
        token = self.peek()
        if token is None:
            raise IdrSyntaxError("unexpected end of input")
        kind, text, pos = token
        if kind == "entity":
            self.advance()
            try:
                return parse_entity_id(text)
            except EntityError as exc:
                raise IdrSyntaxError(f"bad entity at position {pos}: {exc}") from exc
        if kind == "lparen":
            self.advance()
            inner = self.parse_expr(0)
            self.expect("rparen")
            return inner
        raise IdrSyntaxError(f"expected entity or '(', found {text!r} at position {pos}")


def _parse_body(tokens: List[Tuple[str, str, int]]) -> IdrExpr:
    """A rule body that spans all of ``tokens``."""
    parser = _Parser(tokens)
    expr = parser.parse_expr(0)
    if parser.peek() is not None:
        kind, tok, pos = parser.peek()
        raise IdrSyntaxError(f"trailing input {tok!r} at position {pos}")
    return expr


def parse_expr(text: str) -> IdrExpr:
    """Parse a bare rule body."""
    return _parse_body(_tokenize(text))


def parse_idr(text: str, default_model: str = MIIM) -> IdrRule:
    """Parse ``target <- body`` rule text.

    The model is inferred from the operators in the body; a body with no
    operators (a bare entity literal) takes ``default_model``.
    """
    tokens = _tokenize(text)
    arrow_positions = [i for i, tok in enumerate(tokens) if tok[0] == "arrow"]
    if len(arrow_positions) != 1:
        raise IdrSyntaxError("rule must contain exactly one '<-'")
    split = arrow_positions[0]
    target_parser = _Parser(tokens[:split])
    target_expr = target_parser.parse_primary()
    if target_parser.peek() is not None or not isinstance(target_expr, EntityId):
        raise IdrSyntaxError("rule target must be a single entity")
    body = _parse_body(tokens[split + 1 :])
    ops, _ = _scan(body)
    if ops & _MIIM_OPS and ops & _IIM_OPS:
        raise IdrModelError("rule mixes ternary and binary operators")
    if ops & _IIM_OPS:
        model = IIM
    elif ops & _MIIM_OPS:
        model = MIIM
    else:
        model = default_model
    return IdrRule(target_expr, body, model)


# --- Printing ---------------------------------------------------------------


_NO_NAMES: Mapping[EntityId, str] = MappingProxyType({})


def format_expr(expr: IdrExpr, names: Mapping[EntityId, str] = _NO_NAMES) -> str:
    """Canonical text of a rule body; operator children are parenthesized.
    An entity's text is its entry in ``names`` (a writer passes the texts it
    formatted once), else ``str`` of it."""
    if isinstance(expr, EntityId):
        return names.get(expr) or str(expr)
    symbol = f" {_OP_SYMBOL[expr.op]} "
    parts = []
    for child in expr.children:
        text = format_expr(child, names)
        if isinstance(child, Op):
            text = f"({text})"
        parts.append(text)
    return symbol.join(parts)


def format_idr(rule: IdrRule, names: Mapping[EntityId, str] = _NO_NAMES) -> str:
    """Canonical rule text, entities named as in ``format_expr``;
    ``parse_idr(format_idr(r))`` reproduces ``r``."""
    return f"{format_expr(rule.target, names)} <- {format_expr(rule.body, names)}"


# --- Analysis ----------------------------------------------------------------


def free_entities(rule_or_expr: Union[IdrRule, IdrExpr]) -> FrozenSet[EntityId]:
    """All entity literals appearing in a rule body or expression."""
    if isinstance(rule_or_expr, IdrRule):
        return frozenset(rule_or_expr.literals)
    return frozenset(_scan(rule_or_expr)[1])


# --- Evaluation --------------------------------------------------------------


def _nx(*values: int) -> int:
    first = values[0]
    for v in values:
        if v != first:
            return ternary.REDUCED
    return first


_COMPILE_GLOBALS = {"_nx": _nx, "min": min, "max": max, "__builtins__": {}}


def compile_expr(
    expr: IdrExpr, slots: Dict[EntityId, int], model: str = MIIM
) -> Callable[[Sequence[int]], int]:
    """Compile an expression as ``model`` reads it to a function ``f(a)`` of
    a state array ``a``; ``slots`` maps each entity to its array index.

    Under IIM a ternary operator reads as its binary image (``_TRANSLATION``):
    min-AND and new-XOR as Boolean AND, max-OR as Boolean OR, on the same
    tree; binary operators read as themselves.

    Expressions of one shape, the same operator tree up to which literals
    fill it, share one code object: the k-th literal reads ``a[ik]``, and
    each function binds its own slots as the defaults of ``i0, i1, ...``.
    """
    fill: List[int] = []
    source = _expr_source(expr, slots, model == IIM, fill)
    return FunctionType(_shape(source, len(fill)), _COMPILE_GLOBALS, "rule", tuple(fill))


@lru_cache(maxsize=256)
def _shape(source: str, arity: int) -> CodeType:
    """The code of ``def rule(a, i0, ..., i<arity-1>): return <source>``."""
    params = "".join(f", i{k}" for k in range(arity))
    module = compile(f"def rule(a{params}):\n    return {source}\n", "<idr>", "exec")
    return next(const for const in module.co_consts if isinstance(const, CodeType))


def _expr_source(expr: IdrExpr, slots: Dict[EntityId, int], binary: bool, fill: List[int]) -> str:
    """Source of ``expr`` with its k-th literal as ``a[ik]``; appends each
    literal's slot to ``fill``, left to right."""
    if isinstance(expr, EntityId):
        fill.append(slots[expr])
        return f"a[i{len(fill) - 1}]"
    parts = [_expr_source(child, slots, binary, fill) for child in expr.children]
    op = _TRANSLATION.get(expr.op, expr.op) if binary else expr.op
    if op == OP_MIN_AND:
        return f"min({', '.join(parts)})"
    if op == OP_MAX_OR:
        return f"max({', '.join(parts)})"
    if op == OP_NEW_XOR:
        return f"_nx({', '.join(parts)})"
    joiner = " & " if op == OP_BOOL_AND else " | "
    return "(" + joiner.join(parts) + ")"


# --- Rule files ---------------------------------------------------------------

_MODEL_DIRECTIVE_RE = re.compile(r"^#\s*model\s*:\s*(miim|iim)\s*$")


def parse_idr_file(text: str) -> List[IdrRule]:
    """Parse the lines of an ``.idr`` file into rules."""
    rules = []
    model = MIIM
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        directive = _MODEL_DIRECTIVE_RE.match(line)
        if directive:
            model = directive.group(1)
            continue
        if not line or line.startswith("#"):
            continue
        try:
            rules.append(parse_idr(line, default_model=model))
        except (IdrSyntaxError, IdrModelError) as exc:
            raise IdrSyntaxError(f"line {lineno}: {exc}") from exc
    return rules


def format_idr_file(rules: Iterable[IdrRule], header: Iterable[str] = ()) -> str:
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
