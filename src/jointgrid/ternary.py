"""Three-valued operational logic kernel.

Entities of the joint network carry an operational level: 0 (no operation),
1 (reduced operation), or 2 (full operation).  Three operators combine
levels: min-AND selects the lowest input, max-OR selects the highest, and
new-XOR passes a unanimous value through and yields 1 (reduced) otherwise.
The binary predecessor model uses ordinary Boolean AND/OR on {0, 1}.

All operators are total, commutative, associative, idempotent, and
monotone non-decreasing in every argument under the order 0 < 1 < 2;
cascade convergence rests on the monotonicity.

A level is two monotone bits, ``[level >= 1]`` and ``[level = 2]``, and
each operator acts on each as a Boolean operator (the two-bit lemma):
min-AND is AND on both, max-OR is OR on both, and new-XOR is OR on the
``>= 1`` bit (0 only when every operand is 0) and AND on the top bit (2
only when every operand is 2).  Compiled rules (``idr``) read the bits.
"""

from __future__ import annotations

from typing import Iterable

FAILED = 0
REDUCED = 1
FULL = 2

TERNARY_LEVELS = (FAILED, REDUCED, FULL)


def check_ternary(value: int) -> int:
    if value not in TERNARY_LEVELS:
        raise ValueError(f"not a ternary operational level: {value!r}")
    return value


def min_and(a: int, b: int) -> int:
    """Lowest of the two input levels."""
    return min(check_ternary(a), check_ternary(b))


def max_or(a: int, b: int) -> int:
    """Highest of the two input levels."""
    return max(check_ternary(a), check_ternary(b))


def new_xor(values: Iterable[int]) -> int:
    """Unanimous input level, or 1 (reduced operation) on any disagreement.

    Accepts one or more operands; a single operand passes through unchanged.
    """
    vals = [check_ternary(v) for v in values]
    if not vals:
        raise ValueError("empty operand list")
    first = vals[0]
    if all(v == first for v in vals):
        return first
    return REDUCED
