import random

import pytest

from depcalc import (
    MalformedExpression,
    Otimes,
    Tri,
    UNIT,
    Var,
    chain,
    empty,
    evaluate,
    format_expression,
    from_pairs,
    normalize,
    ox,
    parse_expression,
    tri,
)
from depcalc.expression import MAX_NESTING

from conftest import alternating_nest


def test_constructors_normalize():
    e = ox(Var(2), ox(Var(0), Var(1)))
    assert e == Otimes((Var(0), Var(1), Var(2)))
    assert tri(Var(0), tri(Var(1), Var(2))) == Tri((Var(0), Var(1), Var(2)))
    assert ox(Var(0), UNIT) == Var(0)
    assert tri(UNIT, UNIT) == UNIT
    assert ox() == UNIT


def test_ox_sorted_by_least_variable():
    left = tri(Var(3), Var(1))
    right = tri(Var(0), Var(2))
    assert ox(left, right).children[0] == right


def test_linearity_enforced():
    with pytest.raises(MalformedExpression):
        ox(Var(0), Var(0))
    with pytest.raises(MalformedExpression):
        parse_expression("(tri x1 (ox x1 x2))")


def test_parse_format_roundtrip():
    for text in ["e", "x0", "(tri x0 (ox x1 (tri x2 x3)))", "(ox x0 x1 x2)"]:
        assert format_expression(parse_expression(text)) == text


def test_parse_normalizes():
    assert parse_expression("(ox x2 (ox x0 x1))") == parse_expression("(ox x0 x1 x2)")
    assert parse_expression("(tri x0 e)") == Var(0)


def test_parse_errors():
    for text in ["", "(ox x0", "(foo x0 x1)", "x0 x1", "(ox x0 y1)"]:
        with pytest.raises(MalformedExpression):
            parse_expression(text)


def test_parse_nesting_cap():
    depth = MAX_NESTING
    # x_k sits below everything after it exactly when its level is a tri.
    expected = from_pairs(
        depth + 1, [(k, j) for k in range(1, depth, 2) for j in range(k + 1, depth + 1)]
    )
    assert evaluate(parse_expression(alternating_nest(depth))) == expected
    with pytest.raises(MalformedExpression, match="nests deeper than"):
        parse_expression(alternating_nest(depth + 1))
    # Same-kind levels flatten, but the text nesting is still capped.
    with pytest.raises(MalformedExpression):
        parse_expression("(tri " * (depth + 1) + "x0" + ")" * (depth + 1))


def test_evaluate_examples():
    assert evaluate(tri(Var(0), Var(1))) == chain(2)
    assert evaluate(UNIT) == empty()
    domain = evaluate(ox(tri(Var(0), Var(1)), tri(Var(2), Var(3))))
    assert domain == from_pairs(4, [(0, 1), (2, 3)])


def test_evaluate_respects_variable_identity():
    p = evaluate(tri(Var(1), Var(0)))
    assert p == from_pairs(2, [(1, 0)])


def test_evaluate_rejects_gaps_and_raw_trees():
    with pytest.raises(MalformedExpression):
        evaluate(tri(Var(0), Var(2)))
    with pytest.raises(MalformedExpression):
        evaluate(Otimes((Var(0), Otimes((Var(1), Var(2))))))


def test_normalize_canonical_under_random_rebuilds():
    # Build the same variable set with random association and argument order;
    # same denoted poset must mean syntactically equal normal form.
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 6)
        items = [Var(i) for i in range(n)]
        rng.shuffle(items)
        while len(items) > 1:
            k = rng.randrange(len(items) - 1)
            a = items.pop(k)
            b = items.pop(k)
            items.insert(k, ox(a, b) if rng.random() < 0.5 else tri(a, b))
        built = items[0]
        assert normalize(built) == built
        from depcalc import decompose

        # canonicity: the decomposition of the denoted poset is the same term
        assert decompose(evaluate(built)) == built
