"""Three-valued operational logic kernel.

Entities of the joint network carry an operational level: 0 (no operation),
1 (reduced operation), or 2 (full operation).  Three operators combine
levels: min-AND selects the lowest input, max-OR selects the highest, and
new-XOR passes a unanimous value through and yields 1 (reduced) otherwise.
The binary predecessor model uses ordinary Boolean AND/OR on {0, 1}.

All operators are total, commutative, associative, idempotent, and
monotone non-decreasing in every argument under the order 0 < 1 < 2;
cascade convergence rests on the monotonicity.

Compiled rules and cascades hold a level in a thermometer code, ``CODE``:
level k has its low k bits set.  Codes nest in the order of levels, so on
codes ``&`` is min-AND and ``|`` is max-OR; equal codes are equal levels
and 0 and 1 are their own codes, so new-XOR of codes is that of levels.
"""

from __future__ import annotations

from typing import Iterable

FAILED = 0
REDUCED = 1
FULL = 2

TERNARY_LEVELS = (FAILED, REDUCED, FULL)
CODE = (0, 1, 3)  # CODE[level]: its thermometer code
LEVEL = {code: level for level, code in enumerate(CODE)}  # LEVEL[code]: its level


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
