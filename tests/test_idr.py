import dataclasses
import itertools
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from fuzzing import edit_rule_text
from idr_reader import parse_expr, parse_idr, parse_idr_file
from oracle import (
    BINARY_LEVELS,
    BOOL_AND,
    BOOL_OR,
    BinaryOp,
    BinaryRule,
    UnknownEntityError,
    binary_and,
    binary_or,
    columns,
    evaluate,
    format_binary,
    format_idr_file,
    free_entities,
    read,
    reference_expr_source,
    reference_format_expr,
    reference_literals,
    translate_to_iim,
)
from jointgrid import entities as ent, idr, ternary
from jointgrid.cli import rule_file_text
from jointgrid.entities import EntityId, parse_entity_id
from jointgrid.idr import (
    BINARY,
    DELIVERY,
    IIM,
    IIM_SYMBOLS,
    LEVELS,
    MIIM,
    IdrRule,
    IdrSyntaxError,
    Op,
    OP_MAX_OR,
    OP_MIN_AND,
    OP_NEW_XOR,
    compile_expr,
    format_expr,
    format_idr,
)
from jointgrid.network import CASES

RING_RULE = "C(2,1,1,0) <- (C(2,1,2,0) & C(2,2,1,2)) | (C(2,1,6,0) & C(2,2,1,6))"


def lit(text):
    return parse_entity_id(text)


def _walk(expr):
    """Every literal of an expression, left to right, repeats included."""
    if isinstance(expr, EntityId):
        return [expr]
    return [entity for child in expr.children for entity in _walk(child)]


def assert_literals_match_walk(rule):
    """``rule.literals``, recorded by the rule's own scan, against a recursive walk."""
    assert len(set(rule.literals)) == len(rule.literals)
    assert set(rule.literals) == set(_walk(rule.body))
    assert rule.literals == tuple(dict.fromkeys(_walk(rule.body)))


def test_rule_literals_match_a_recursive_walk(ieee14, ieee118):
    for network in (ieee14, ieee118):
        for rule_set in network.rule_sets.values():  # both models, both cases
            for rule in (*rule_set.rules, *rule_set.availability):
                assert_literals_match_walk(rule)


def test_rule_leaves_are_entity_ids(ieee118):
    """Every leaf of every 118-bus cascade and availability body, under both
    models and both cases, is the entity id itself; so is a parsed bare body."""
    assert parse_expr("P(1)") == ent.bus(1)
    assert type(parse_expr("P(1)")) is EntityId
    for rule_set in ieee118.rule_sets.values():
        for rule in (*rule_set.rules, *rule_set.availability):
            stack = [rule.body]
            while stack:
                node = stack.pop()
                if isinstance(node, Op):
                    stack.extend(node.children)
                else:
                    assert type(node) is EntityId, (rule.target, node)


def test_parse_ring_rule_structure():
    rule = parse_idr(RING_RULE)
    assert isinstance(rule, IdrRule)
    assert rule.target == parse_entity_id("C(2,1,1,0)")
    assert rule.body == Op(
        OP_MAX_OR,
        (
            Op(OP_MIN_AND, (lit("C(2,1,2,0)"), lit("C(2,2,1,2)"))),
            Op(OP_MIN_AND, (lit("C(2,1,6,0)"), lit("C(2,2,1,6)"))),
        ),
    )


def test_parse_literal_rule():
    rule = parse_idr("R(1) <- P(4)")
    assert rule == IdrRule(lit("R(1)"), lit("P(4)"))
    rule_iim = parse_idr("R(1) <- P(4)", default_model=IIM)
    assert rule_iim == BinaryRule(lit("R(1)"), lit("P(4)"))


def test_precedence_xor_loosest():
    rule = parse_idr("P(1) <- P(2) ^ P(3) & P(4)")
    assert rule.body == Op(
        OP_NEW_XOR, (lit("P(2)"), Op(OP_MIN_AND, (lit("P(3)"), lit("P(4)"))))
    )


def test_precedence_and_tighter_than_or():
    rule = parse_idr("P(1) <- P(2) | P(3) & P(4)")
    assert rule.body == Op(
        OP_MAX_OR, (lit("P(2)"), Op(OP_MIN_AND, (lit("P(3)"), lit("P(4)"))))
    )


def test_unparenthesized_chains_flatten():
    rule = parse_idr("P(1) <- P(2) & P(3) & P(4)")
    assert rule.body == Op(OP_MIN_AND, (lit("P(2)"), lit("P(3)"), lit("P(4)")))


def test_explicit_parens_preserved():
    rule = parse_idr("P(1) <- P(2) ^ (P(3) ^ P(4))")
    assert rule.body == Op(
        OP_NEW_XOR, (lit("P(2)"), Op(OP_NEW_XOR, (lit("P(3)"), lit("P(4)"))))
    )
    assert parse_idr(format_idr(rule)) == rule


def test_iim_operators():
    rule = parse_idr("P(1) <- P(2) . P(3) + P(4)")
    assert rule == BinaryRule(
        lit("P(1)"), BinaryOp(BOOL_OR, (BinaryOp(BOOL_AND, (lit("P(2)"), lit("P(3)"))), lit("P(4)")))
    )


def test_mixed_model_operators_rejected():
    with pytest.raises(IdrSyntaxError, match="mixes"):
        parse_idr("P(1) <- P(2) & P(3) + P(4)")
    with pytest.raises(IdrSyntaxError, match="mixes"):
        parse_idr("P(1) <- (P(2) . P(3)) & P(4)")


def test_model_discipline_enforced():
    """Rule trees are ternary: an operator node refuses the binary model's
    operators, which only the tests' own trees hold, and a rule holds no
    model of its own."""
    for op in (BOOL_AND, BOOL_OR):
        with pytest.raises(IdrSyntaxError, match="unknown operator"):
            Op(op, (lit("P(2)"), lit("P(3)")))
    assert [field.name for field in dataclasses.fields(IdrRule)] == ["target", "body", "literals"]


def test_lexical_error_reports_position():
    with pytest.raises(IdrSyntaxError, match="unexpected character .* at position 8"):
        parse_idr("P(1) <- P(!2)")
    with pytest.raises(IdrSyntaxError, match="at position 12"):
        parse_idr("P(1) <- P(2)!")


def test_syntax_error_reports_expectation():
    with pytest.raises(IdrSyntaxError, match="expected"):
        parse_idr("P(1) <- (P(2) | P(3)")
    with pytest.raises(IdrSyntaxError):
        parse_idr("P(1) <- ")
    with pytest.raises(IdrSyntaxError, match="exactly one"):
        parse_idr("P(1) <- P(2) <- P(3)")


def test_mixed_same_level_chain_rejected():
    with pytest.raises(IdrSyntaxError, match="mixed operators"):
        parse_expr("P(1) | P(2) + P(3)")


def test_arity_enforced_on_nodes():
    with pytest.raises(IdrSyntaxError, match=">=2 operands"):
        Op(OP_MIN_AND, (lit("P(1)"),))


@pytest.mark.parametrize(
    "children",
    [ent.bus(1), [ent.bus(1), ent.bus(2)], (ent.bus(1), "P(2)")],
    ids=["entity-id", "list", "str-child"],
)
def test_malformed_operands_rejected_on_construction(children):
    """An id as the children (an id is itself a 2-tuple), a list, or a child
    that is neither an id nor an operator node fails when the node is built."""
    with pytest.raises(IdrSyntaxError, match="operand"):
        Op(OP_MIN_AND, children)


def test_format_ring_rule_round_trip():
    rule = parse_idr(RING_RULE)
    assert format_idr(rule) == RING_RULE
    assert parse_idr(format_idr(rule)) == rule


def test_format_literal_rule():
    rule = parse_idr("R(1) <- P(4)")
    assert format_idr(rule) == "R(1) <- P(4)"


def test_flat_xor_chain_round_trip():
    terms = tuple(lit(f"C(1,2,{i},{i})") for i in range(1, 7))
    rule = IdrRule(parse_entity_id("C(2,1,1,0)"), Op(OP_NEW_XOR, terms))
    text = format_idr(rule)
    assert text.count("^") == 5
    body = text.split(" <- ")[1]
    assert body.count("(") == 6  # entity parens only, no grouping
    assert parse_idr(text) == rule


def test_translate_preserves_shape():
    rule = parse_idr(RING_RULE)
    iim_rule = translate_to_iim(rule)
    assert iim_rule.target == rule.target
    assert format_binary(iim_rule.body) == "(C(2,1,2,0) . C(2,2,1,2)) + (C(2,1,6,0) . C(2,2,1,6))"
    assert format_binary(iim_rule.body) == format_expr(rule.body).translate(IIM_SYMBOLS)
    assert free_entities(iim_rule) == free_entities(rule)

    def shape(expr):
        if isinstance(expr, EntityId):
            return "L"
        return (len(expr.children), tuple(shape(c) for c in expr.children))

    assert shape(iim_rule.body) == shape(rule.body)


def test_translate_min_and_becomes_bool_and():
    rule = parse_idr("P(1) <- P(2) & P(3)")
    assert translate_to_iim(rule).body == BinaryOp(BOOL_AND, (lit("P(2)"), lit("P(3)")))


def test_translate_new_xor_becomes_bool_and():
    rule = parse_idr("P(1) <- P(2) ^ P(3)")
    assert translate_to_iim(rule).body == BinaryOp(BOOL_AND, (lit("P(2)"), lit("P(3)")))


def test_free_entities_ring_rule():
    rule = parse_idr(RING_RULE)
    assert free_entities(rule) == frozenset(
        parse_entity_id(t)
        for t in ["C(2,1,2,0)", "C(2,2,1,2)", "C(2,1,6,0)", "C(2,2,1,6)"]
    )


def test_free_entities_literal():
    assert free_entities(parse_idr("R(1) <- P(4)")) == frozenset({parse_entity_id("P(4)")})


def test_evaluate_all_operational():
    rule = parse_idr(RING_RULE)
    state = {entity: 2 for entity in free_entities(rule)}
    assert evaluate(rule.body, state) == 2


def test_evaluate_one_ring_arm_down():
    rule = parse_idr(RING_RULE)
    state = {entity: 2 for entity in free_entities(rule)}
    state[parse_entity_id("C(2,1,2,0)")] = 0
    assert evaluate(rule.body, state) == 2


def test_evaluate_xor_with_one_failed_source():
    terms = tuple(lit(f"C(1,2,{i},{i})") for i in range(1, 7))
    expr = Op(OP_NEW_XOR, terms)
    state = {parse_entity_id(f"C(1,2,{i},{i})"): 2 for i in range(1, 7)}
    state[parse_entity_id("C(1,2,3,3)")] = 0
    assert evaluate(expr, state) == 1


def test_evaluate_unknown_entity_named():
    rule = parse_idr(RING_RULE)
    with pytest.raises(UnknownEntityError, match=r"C\(2,1,2,0\)"):
        evaluate(rule.body, {})


_KERNEL = {
    OP_MIN_AND: lambda values: reduce(ternary.min_and, values),
    OP_MAX_OR: lambda values: reduce(ternary.max_or, values),
    OP_NEW_XOR: ternary.new_xor,
    BOOL_AND: lambda values: reduce(binary_and, values),
    BOOL_OR: lambda values: reduce(binary_or, values),
}


def _node(op, children):
    """An operator node: the package's ``Op`` for a ternary operator, the
    oracle's ``BinaryOp`` for a binary one."""
    return (BinaryOp if op in (BOOL_AND, BOOL_OR) else Op)(op, children)


@pytest.mark.parametrize("arity", [2, 3])
def test_both_readings_match_the_ternary_kernel(arity):
    """On every input of ``arity`` operands, each operator of the oracle and
    of ``compile_expr`` equals its ``ternary`` kernel function: the ternary
    operators on {0, 1, 2} under MIIM, the binary ones on {0, 1}; and under
    IIM, ``compile_expr`` reads min-AND and new-XOR as ``binary_and`` and
    max-OR as ``binary_or``.  Each batch of inputs is one oracle call."""
    operands = tuple(ent.bus(k) for k in range(1, arity + 1))
    slots = {entity: k for k, entity in enumerate(operands)}
    ternary_inputs = list(itertools.product(ternary.TERNARY_LEVELS, repeat=arity))
    binary_inputs = list(itertools.product(BINARY_LEVELS, repeat=arity))
    for op, inputs in (
        (OP_MIN_AND, ternary_inputs),
        (OP_MAX_OR, ternary_inputs),
        (OP_NEW_XOR, ternary_inputs),
        (BOOL_AND, binary_inputs),
        (BOOL_OR, binary_inputs),
    ):
        expr = _node(op, operands)
        expected = [_KERNEL[op](values) for values in inputs]
        assert evaluate(expr, columns(operands, inputs)).tolist() == expected, op
        if op in (OP_MIN_AND, OP_MAX_OR, OP_NEW_XOR):
            fn = compile_expr(expr, slots, LEVELS)
            assert [fn(values) for values in inputs] == expected, op
    for op, image in ((OP_MIN_AND, BOOL_AND), (OP_NEW_XOR, BOOL_AND), (OP_MAX_OR, BOOL_OR)):
        fn = compile_expr(Op(op, operands), slots, BINARY)
        assert [fn(values) for values in binary_inputs] == [
            _KERNEL[image](values) for values in binary_inputs
        ], op


@pytest.mark.parametrize("op", sorted(_KERNEL))
def test_oracle_rejects_bad_levels_and_missing_entities(op):
    """An out-of-range level in any entry of any operand's column raises
    ``ValueError``; an entity missing from the state raises
    ``UnknownEntityError`` naming it."""
    operands = tuple(ent.bus(k) for k in range(1, 4))
    expr = _node(op, operands)
    top = 1 if op in (BOOL_AND, BOOL_OR) else 2
    for position in range(len(operands)):
        for bad in (-1, top + 1):
            arrays = [[0] * len(operands) for _ in range(4)]
            arrays[2][position] = bad
            with pytest.raises(ValueError, match=f"operational level: {bad}$"):
                evaluate(expr, columns(operands, arrays))
    with pytest.raises(UnknownEntityError, match=r"P\(3\)"):
        evaluate(expr, columns(operands[:2], [[0, 0], [1, 1]]))


def test_idr_file_round_trip():
    rules = [
        parse_idr(RING_RULE),
        parse_idr("C(1,4,1,6) <- C(1,2,6,6)", default_model=IIM),
        parse_idr("P(1) <- P(2) . P(3)"),
    ]
    text = format_idr_file(rules, header=["demo"])
    parsed = parse_idr_file(text)
    assert parsed == rules


def test_idr_file_reports_line():
    with pytest.raises(IdrSyntaxError, match="line 3"):
        parse_idr_file("# ok\nP(1) <- P(2)\nP(3) <- !\n")


def test_idr_file_reports_line_of_oversized_index():
    # An index past Python's 4300-digit integer limit is a bad entity.
    with pytest.raises(IdrSyntaxError, match="line 2: bad entity"):
        parse_idr_file("P(1) <- P(2)\nP(3) <- P(" + "9" * 5000 + ")\n")


# Structured random ternary expressions: each reading must round-trip and compile.

_ENTITIES = [f"P({i})" for i in range(1, 9)]


def _expr_strategy():
    leaves = st.sampled_from([lit(t) for t in _ENTITIES])

    def extend(children):
        return st.builds(
            Op,
            st.sampled_from([OP_MIN_AND, OP_MAX_OR, OP_NEW_XOR]),
            st.lists(children, min_size=2, max_size=4).map(tuple),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=120, deadline=None)
@given(_expr_strategy(), st.integers(0, 2**31 - 1))
def test_random_miim_exprs_round_trip_and_compile(expr, seed):
    import random

    text = format_expr(expr)
    assert parse_expr(text) == expr
    assert_literals_match_walk(IdrRule(parse_entity_id("R(1)"), expr))

    rng = random.Random(seed)
    entities = sorted(free_entities(expr))
    state = {entity: rng.choice([0, 1, 2]) for entity in entities}
    slots = {entity: i for i, entity in enumerate(sorted(state))}
    array = [0] * len(slots)
    for entity, value in state.items():
        array[slots[entity]] = value
    assert compile_expr(expr, slots, LEVELS)(array) == evaluate(expr, state)


def assert_walks_match_references(rule, slots, names):
    """``rule``'s literals, its body's text (with ``names`` and without) and
    its body's source and defaults in every reading, against the
    references in ``oracle``."""
    assert rule.literals == reference_literals(rule.body)
    assert format_expr(rule.body) == reference_format_expr(rule.body)
    assert format_expr(rule.body, names) == reference_format_expr(rule.body, names)
    for reading in (LEVELS, DELIVERY, BINARY):
        fill, reference_fill = [], []
        source = idr._expr_source(rule.body, slots, reading, fill)
        assert source == reference_expr_source(rule.body, slots, reading, reference_fill)
        assert fill == reference_fill
        fn = compile_expr(rule.body, slots, reading)
        assert fn.__defaults__ == tuple(reference_fill)
        assert fn.__code__ == idr._shape(source, len(fill))


def test_tree_walks_match_their_references_on_every_fixture_rule(ieee14, ieee118):
    """Oracle for the direct recursions over rule trees: on every cascade and
    availability rule of both fixtures, in every reading, the literals, the
    text and the compiled source and defaults equal the references'."""
    for network in (ieee14, ieee118):
        names = dict(zip(network.entity_order, network.names))
        rules = {
            id(rule): rule
            for rule_set in network.rule_sets.values()
            for rule in (*rule_set.rules, *rule_set.availability)
        }
        for rule in rules.values():
            assert_walks_match_references(rule, network.slots, names)


@settings(max_examples=100, deadline=None)
@given(_expr_strategy())
def test_tree_walks_match_their_references_on_random_trees(expr):
    """The same oracle on random trees, whose literals repeat, with some
    entities named and the others written by ``str``."""
    entities = [lit(text) for text in _ENTITIES]
    slots = {entity: i for i, entity in enumerate(entities)}
    names = {entity: f"e{i}" for i, entity in enumerate(entities[::2])}
    assert_walks_match_references(IdrRule(parse_entity_id("R(1)"), expr), slots, names)


@settings(max_examples=60, deadline=None)
@given(_expr_strategy(), st.integers(0, 2**31 - 1))
def test_random_iim_exprs_round_trip_and_compile(expr, seed):
    """A random ternary tree's binary translation round-trips through its
    text, and the tree compiled under IIM evaluates as that translation."""
    import random

    binary = translate_to_iim(IdrRule(parse_entity_id("R(1)"), expr)).body
    assert parse_expr(format_binary(binary)) == binary

    rng = random.Random(seed)
    entities = sorted(free_entities(expr))
    state = {entity: rng.choice([0, 1]) for entity in entities}
    slots = {entity: i for i, entity in enumerate(sorted(state))}
    array = [0] * len(slots)
    for entity, value in state.items():
        array[slots[entity]] = value
    assert compile_expr(expr, slots, BINARY)(array) == evaluate(binary, state)


def test_expression_naming_an_entity_twice_compiles_correctly():
    """Each occurrence of a literal binds its own parameter, so an entity
    named twice is read from its one slot twice; under either model the
    function agrees with ``evaluate`` at every state."""
    import itertools

    rule = parse_idr("R(1) <- (P(1) & P(2)) | (P(3) ^ P(1)) | P(1)")
    slots = {parse_entity_id(t): i for i, t in enumerate(["P(1)", "P(2)", "P(3)"])}
    for model, reading, levels, body in (
        (MIIM, LEVELS, (0, 1, 2), rule.body),
        (IIM, BINARY, (0, 1), translate_to_iim(rule).body),
    ):
        fn = compile_expr(rule.body, slots, reading)
        assert fn.__defaults__ == (0, 1, 2, 0, 0)
        for array in itertools.product(levels, repeat=len(slots)):
            state = {entity: array[slot] for entity, slot in slots.items()}
            assert fn(array) == evaluate(body, state), (model, array)


def _shape(expr):
    """An expression's operator tree with its literals blanked out."""
    if isinstance(expr, EntityId):
        return None
    return expr.op, tuple(_shape(child) for child in expr.children)


def test_rules_of_one_shape_share_one_code_object(ieee118):
    """Oracle for the shape table.  Over every 118-bus cascade and
    availability expression, under each model, the compiled functions hold
    one code object per distinct shape of the tree the model reads, with
    the slots of the tree's literals, left to right, bound as defaults; and
    each function equals ``evaluate`` on that tree (under IIM, the rule's
    ``translate_to_iim``) at 20 random states.  Each expression's delivery reading is truthy at
    those states exactly when the oracle's value is ``>= 1``."""
    import random

    rng = random.Random(118)
    entities = ieee118.entity_ids()
    for model, reading, bit, levels in ((MIIM, LEVELS, DELIVERY, (0, 1, 2)), (IIM, BINARY, BINARY, (0, 1))):
        checks, delivery = {}, {}  # body id -> (function, the tree the model reads); its delivery reading
        for case in CASES:
            rule_set = ieee118.rule_set(model, case)
            for rule, read_rule in zip(
                (*rule_set.rules, *rule_set.availability),
                (*read(rule_set).rules, *read(rule_set).availability),
            ):
                checks[id(rule.body)] = (compile_expr(rule.body, ieee118.slots, reading), read_rule.body)
                delivery[id(rule.body)] = compile_expr(rule.body, ieee118.slots, bit)
        shapes = {_shape(tree) for _, tree in checks.values()}
        # Code objects compare by content: count the objects themselves.
        assert len({id(fn.__code__) for fn, _ in checks.values()}) == len(shapes) > 1
        for fn, tree in checks.values():
            assert fn.__defaults__ == tuple(ieee118.slots[entity] for entity in _walk(tree))
        arrays = [rng.choices(levels, k=len(entities)) for _ in range(20)]
        state = columns(entities, arrays)
        oracle = [evaluate(tree, state) for _, tree in checks.values()]
        for k, array in enumerate(arrays):
            found = [fn(array) for fn, _ in checks.values()]
            assert found == [values[k] for values in oracle]
            assert [bool(fn(array)) for fn in delivery.values()] == [values[k] >= 1 for values in oracle]


def test_shape_cache_holds_every_fixture_shape(ieee14, ieee118, ieee118_grid):
    """Every rule of both fixtures, compiled in every reading (under MIIM in
    levels and in the delivery reading, and under IIM), fits the shape
    cache with room to spare: 99 shapes.  The rules of a second build of
    the 118-bus network compile no new shape."""
    from jointgrid import idr
    from jointgrid.synthesis import build_joint_network

    def compile_all(network):
        bodies = {
            id(rule.body): rule.body
            for rule_set in network.rule_sets.values()
            for rule in (*rule_set.rules, *rule_set.availability)
        }
        for body in bodies.values():
            for reading in (LEVELS, DELIVERY, BINARY):
                compile_expr(body, network.slots, reading)

    idr._shape.cache_clear()
    for network in (ieee14, ieee118):
        compile_all(network)
    shapes = idr._shape.cache_info()
    assert shapes.currsize == 99 < shapes.maxsize
    compile_all(build_joint_network(ieee118_grid))
    assert idr._shape.cache_info().misses == shapes.misses


@pytest.fixture(scope="module")
def rule_files14(ieee14):
    """The four 14-bus rule files' texts, by (model, case)."""
    return rule_file_text(ieee14)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_edited_rule_file_parses_or_raises_its_error(rule_files14, data):
    text = rule_files14[data.draw(st.sampled_from(sorted(rule_files14)))]
    text = edit_rule_text(data, text)
    try:
        parse_idr_file(text)
    except IdrSyntaxError:
        pass
