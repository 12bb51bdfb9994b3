import itertools
import random
from functools import reduce

import pytest

from oracle import binary_and, binary_or, columns, evaluate, read, to_binary
from jointgrid import entities as ent
from jointgrid.idr import BINARY, DELIVERY, IIM, LEVELS, MIIM, OP_MAX_OR, OP_MIN_AND, OP_NEW_XOR, Op, compile_expr
from jointgrid.network import CASES
from jointgrid.ternary import (
    FAILED,
    FULL,
    REDUCED,
    TERNARY_LEVELS,
    max_or,
    min_and,
    new_xor,
)

# Printed truth table: (a, b) -> (min_and, max_or, new_xor)
TRUTH_TABLE = {
    (2, 2): (2, 2, 2),
    (2, 1): (1, 2, 1),
    (2, 0): (0, 2, 1),
    (1, 2): (1, 2, 1),
    (1, 1): (1, 1, 1),
    (1, 0): (0, 1, 1),
    (0, 2): (0, 2, 1),
    (0, 1): (0, 1, 1),
    (0, 0): (0, 0, 0),
}


def test_truth_table_fidelity():
    for (a, b), (expected_and, expected_or, expected_xor) in TRUTH_TABLE.items():
        assert min_and(a, b) == expected_and
        assert max_or(a, b) == expected_or
        assert new_xor([a, b]) == expected_xor


def test_table_spot_values():
    assert min_and(2, 1) == 1
    assert min_and(0, 0) == 0
    assert min_and(2, 2) == 2
    assert max_or(1, 0) == 1
    assert max_or(0, 0) == 0
    assert max_or(2, 0) == 2
    assert new_xor([2, 1]) == 1
    assert new_xor([0, 0]) == 0
    assert new_xor([2, 0, 1]) == 1


def test_binary_ops():
    assert binary_and(1, 0) == 0
    assert binary_or(1, 0) == 1
    assert binary_and(1, 1) == 1
    assert binary_or(0, 0) == 0


def test_commutativity_and_associativity_exhaustive():
    def xor2(a, b):
        return new_xor([a, b])

    for op in (min_and, max_or, xor2):
        for a, b in itertools.product(TERNARY_LEVELS, repeat=2):
            assert op(a, b) == op(b, a)
        for a, b, c in itertools.product(TERNARY_LEVELS, repeat=3):
            assert op(op(a, b), c) == op(a, op(b, c))


def test_new_xor_fold_equals_nary():
    def xor2(a, b):
        return new_xor([a, b])

    for length in (1, 2, 3, 4):
        for values in itertools.product(TERNARY_LEVELS, repeat=length):
            folded = values[0]
            for v in values[1:]:
                folded = xor2(folded, v)
            assert folded == new_xor(list(values))


def test_monotonicity_exhaustive():
    def xor2(a, b):
        return new_xor([a, b])

    for op in (min_and, max_or, xor2):
        for a, b in itertools.product(TERNARY_LEVELS, repeat=2):
            for a2 in TERNARY_LEVELS:
                if a2 >= a:
                    assert op(a2, b) >= op(a, b)
            for b2 in TERNARY_LEVELS:
                if b2 >= b:
                    assert op(a, b2) >= op(a, b)


def test_idempotence():
    for v in TERNARY_LEVELS:
        assert min_and(v, v) == v
        assert max_or(v, v) == v
        assert new_xor([v, v]) == v


def test_single_operand_passthrough():
    for v in TERNARY_LEVELS:
        assert new_xor([v]) == v


def test_empty_operands_rejected():
    with pytest.raises(ValueError, match="empty operand list"):
        new_xor([])


def test_invalid_levels_rejected():
    with pytest.raises(ValueError):
        min_and(3, 0)
    with pytest.raises(ValueError):
        max_or(0, -1)
    with pytest.raises(ValueError):
        binary_and(2, 0)
    with pytest.raises(ValueError):
        binary_or(0, 2)


def test_binary_projection():
    assert to_binary(FAILED) == 0
    assert to_binary(REDUCED) == 1
    assert to_binary(FULL) == 1


# Each operator's Boolean reading of a level's >= 1 bit and of its top bit.
_BITS = {OP_MIN_AND: (all, all), OP_MAX_OR: (any, any), OP_NEW_XOR: (any, all)}
_KERNEL = {
    OP_MIN_AND: lambda values: reduce(min_and, values),
    OP_MAX_OR: lambda values: reduce(max_or, values),
    OP_NEW_XOR: new_xor,
}


def _trees(leaves):
    """Every tree over ``leaves`` in order: a leaf alone, or each operator
    over two or more trees that split ``leaves`` into consecutive runs."""
    if len(leaves) == 1:
        yield leaves[0]
    n = len(leaves)
    for k in range(1, n):
        for cuts in itertools.combinations(range(1, n), k):
            bounds = (0, *cuts, n)
            runs = [list(_trees(leaves[a:b])) for a, b in zip(bounds, bounds[1:])]
            for children in itertools.product(*runs):
                for op in _BITS:
                    yield Op(op, children)


def _level(tree, levels):
    """``tree``'s level by the ``ternary`` kernel, at ``levels`` by slot."""
    if type(tree) is not Op:
        return levels[tree.indices[0]]
    return _KERNEL[tree.op]([_level(child, levels) for child in tree.children])


def _bit(tree, bits, which):
    """``tree``'s Boolean reading of one bit (0: ``>= 1``, 1: top) over the
    bits ``bits`` by slot."""
    if type(tree) is not Op:
        return bits[tree.indices[0]]
    return _BITS[tree.op][which](_bit(child, bits, which) for child in tree.children)


def test_two_bit_lemma_exhaustive():
    """A level is two bits, ``[level >= 1]`` and ``[level = 2]``, and each
    operator acts on each as a Boolean operator: on the ``>= 1`` bits
    min-AND, max-OR and new-XOR are AND, OR, OR, and on the top bits AND,
    OR, AND.  For every tree over 1 to 4 literals (each operator over 2 to
    4 operands, and every nesting) and every state of {0, 1, 2}^n, each bit
    of the tree's level equals its Boolean reading; ``LEVELS`` compiles the
    tree to that level, ``DELIVERY`` to a value truthy exactly at its
    ``>= 1`` bit, and ``BINARY``, given the top bits, to its top bit."""
    trees = 0
    for n in (1, 2, 3, 4):
        operands = [ent.bus(k) for k in range(n)]
        slots = {entity: k for k, entity in enumerate(operands)}
        for tree in _trees(operands):
            trees += 1
            levels, delivery, binary = (compile_expr(tree, slots, reading) for reading in (LEVELS, DELIVERY, BINARY))
            for values in itertools.product(TERNARY_LEVELS, repeat=n):
                level = _level(tree, values)
                low, top = [v >= 1 for v in values], [int(v == FULL) for v in values]
                assert (level >= 1, level == FULL) == (_bit(tree, low, 0), _bit(tree, top, 1)), (tree, values)
                assert levels(values) == level, (tree, values)
                assert bool(delivery(values)) == (level >= 1), (tree, values)
                assert binary(top) == (level == FULL), (tree, values)
    assert trees == 1 + 3 + 21 + 183


def test_boolean_readings_match_the_oracle(ieee14):
    """Over every 14-bus cascade and data-path rule, at 40 random ternary
    states, MIIM's delivery reading is truthy exactly when the
    oracle's ``evaluate`` of the rule is ``>= 1``; at 40 random binary
    states, IIM's reading is the oracle's value of the tree IIM reads.
    ``test_rules_of_one_shape_share_one_code_object`` checks the 118-bus
    rules' delivery readings against the same oracle."""
    rng = random.Random(31)
    entities = ieee14.entity_ids()
    for model, reading, levels in ((MIIM, DELIVERY, TERNARY_LEVELS), (IIM, BINARY, (0, 1))):
        trees = {}  # body id -> (body, the tree the model reads)
        for case in CASES:
            rule_set = ieee14.rule_set(model, case)
            read_set = read(rule_set)
            for rule, read_rule in zip(
                (*rule_set.rules, *rule_set.availability), (*read_set.rules, *read_set.availability)
            ):
                trees[id(rule.body)] = (rule.body, read_rule.body)
        fns = [compile_expr(body, ieee14.slots, reading) for body, _ in trees.values()]
        arrays = [rng.choices(levels, k=len(entities)) for _ in range(40)]
        state = columns(entities, arrays)
        oracle = [evaluate(tree, state) for _, tree in trees.values()]
        for k, array in enumerate(arrays):
            found = [fn(bytes(array)) for fn in fns]
            assert [bool(value) for value in found] == [bool(values[k] >= 1) for values in oracle], model
            if model == IIM:
                assert found == [values[k] for values in oracle]
