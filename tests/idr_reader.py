"""The ``.idr`` rule-file reader: the tests' round-trip oracle for the writer.

``jointgrid`` writes rule files and never reads one; this module reads them
back, so the tests can check that ``parse_idr(format_idr(rule)) == rule``
and that each emitted file parses to the rules it was written from.

Ternary-model operators: ``&`` (min-AND, tightest), ``|`` (max-OR), ``^``
(new-XOR, loosest), all left-associative; a ternary rule parses to the
package's ``IdrRule``.  Binary-model rules use ``.`` (AND) and ``+`` (OR)
instead and parse to the oracle's ``BinaryRule`` of ``BinaryOp`` nodes,
since the package's rule trees are ternary only.  A rule mixing the two
raises ``IdrSyntaxError``.  Operator nodes are n-ary: unparenthesized
chains of one operator flatten into a single node, while explicit
parentheses are preserved, so ``parse(format(rule))`` reproduces the rule
exactly.

Rule files hold one rule per line; ``#`` starts a comment and blank lines
are ignored.  A ``#model: miim|iim`` comment line sets the model for
subsequent operator-free rules.
"""

import re
from typing import List, Tuple

from oracle import BOOL_AND, BOOL_OR, BinaryOp, BinaryRule
from jointgrid.entities import EntityError, EntityId, parse_entity_id
from jointgrid.idr import IIM, MIIM, OP_MAX_OR, OP_MIN_AND, OP_NEW_XOR, IdrExpr, IdrRule, IdrSyntaxError, Op

_SYMBOL_OP = {"&": OP_MIN_AND, "|": OP_MAX_OR, "^": OP_NEW_XOR, ".": BOOL_AND, "+": BOOL_OR}
_OP_TEXT = {op: symbol for symbol, op in _SYMBOL_OP.items()}
_BINARY_OPS = {BOOL_AND, BOOL_OR}

# Binding strength: higher parses tighter.  ^ is loosest, & / . tightest.
_OP_LEVEL = {
    OP_NEW_XOR: 0,
    OP_MAX_OR: 1,
    BOOL_OR: 1,
    OP_MIN_AND: 2,
    BOOL_AND: 2,
}


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
                    f"mixed operators {_OP_TEXT[chain_op]!r} and {token[1]!r} "
                    f"in one chain at position {token[2]}; parenthesize"
                )
            self.advance()
            operands.append(self.parse_expr(level + 1))
        if len(operands) == 1:
            return operands[0]
        binary = chain_op in _BINARY_OPS
        if any(isinstance(child, BinaryOp) != binary for child in operands if not isinstance(child, EntityId)):
            raise IdrSyntaxError("rule mixes ternary and binary operators")
        return (BinaryOp if binary else Op)(chain_op, tuple(operands))

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
    """Parse ``target <- body`` rule text into an ``IdrRule`` or, for a
    binary body, a ``BinaryRule``.

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
    if isinstance(body, BinaryOp) or (isinstance(body, EntityId) and default_model == IIM):
        return BinaryRule(target_expr, body)
    return IdrRule(target_expr, body)


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
        except IdrSyntaxError as exc:
            raise IdrSyntaxError(f"line {lineno}: {exc}") from exc
    return rules
