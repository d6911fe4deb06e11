import gc
import random

import pytest

from depcalc import (
    MalformedExpression,
    Otimes,
    Tri,
    UNIT,
    Unit,
    Var,
    chain,
    decompose,
    empty,
    evaluate,
    format_expression,
    from_pairs,
    normalize,
    ox,
    parse_expression,
    tri,
)
from depcalc import expression
from depcalc.expression import up_sets
from depcalc.poset import MAX_ELEMENTS

from conftest import all_posets, alternating_nest, oracle_evaluate, relabel, relation


def test_evaluate_matches_the_pair_set_oracle():
    # Every normal form with at most three variables, on 0..n-1 and spread
    # out to odd labels, where up_sets' rows are label masks.
    for n in range(4):
        for p in all_posets(n):
            expr = decompose(p)
            order, rel = oracle_evaluate(expr)
            assert sorted(order) == list(range(n))
            assert relation(evaluate(expr)) == (n, rel)
            spread = relabel(expr, lambda v: 2 * v + 1)
            order, rel = oracle_evaluate(spread)
            up = up_sets(spread)
            assert sorted(up) == sorted(order)
            assert up == {v: sum(1 << j for i, j in rel if i == v) for v in order}


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


def test_equal_terms_built_apart_are_equal_values():
    text = "(ox x0 (tri x1 (ox x2 x3)) x4)"
    first, second = parse_expression(text), parse_expression(text)
    assert first is second
    assert first == second and hash(first) == hash(second)
    assert first != parse_expression("(ox x0 (tri x1 (ox x2 x3)) x5)")
    assert Var(3) != Tri((Var(3),)) and UNIT == type(UNIT)()
    assert first.mask == 0b11111 and Var(7).mask == 1 << 7 and UNIT.mask == 0


def test_terms_are_interned():
    text = "(tri x0 (ox x1 x2) x3)"
    assert parse_expression(text) is parse_expression(text)
    assert Unit() is UNIT and Var(5) is Var(5)
    assert Otimes((Var(0), Var(1))) is ox(Var(1), Var(0))
    assert Tri((Var(0), Var(1))) is not Otimes((Var(0), Var(1)))


def test_rejected_terms_leave_no_table_entry():
    x0 = Var(0)
    gc.collect()
    start = len(expression._TABLE)
    for build in (lambda: Var(-1), lambda: Otimes((x0, x0))):
        with pytest.raises(MalformedExpression):
            build()
    gc.collect()
    assert len(expression._TABLE) == start
    assert (Var, -1) not in expression._TABLE
    assert (Otimes, (x0, x0)) not in expression._TABLE


def test_dropped_terms_leave_the_table():
    gc.collect()
    start = len(expression._TABLE)
    terms = [tri(Var(k), ox(Var(k + 1), Var(k + 2))) for k in range(10_000)]
    assert len(set(map(id, terms))) == 10_000
    assert len(expression._TABLE) > start + 10_000
    del terms
    gc.collect()
    assert len(expression._TABLE) == start


def test_deep_terms_compare_without_recursion():
    # Built bottom-up, 3,000 alternating levels: far past the recursion limit.
    def nest(depth):
        term = Var(depth)
        for k in reversed(range(depth)):
            term = (Otimes if k % 2 == 0 else Tri)((Var(k), term))
        return term

    assert nest(3000) == nest(3000) and nest(3000) != nest(2999)
    assert format_expression(nest(3000)).startswith("(ox x0 (tri x1 (ox x2 ")


def test_deep_decomposed_term_evaluates_back():
    # 1,200 elements whose normal form alternates ox and tri at every level.
    depth = 1199
    p = from_pairs(depth + 1, [(k, j) for k in range(1, depth, 2) for j in range(k + 1, depth + 1)])
    expr = decompose(p)
    assert format_expression(expr) == alternating_nest(depth)
    assert evaluate(expr) == p


def test_term_nodes_are_immutable():
    for term in (UNIT, Var(0), ox(Var(0), Var(1)), tri(Var(0), Var(1))):
        with pytest.raises(AttributeError):
            term.mask = 0
        with pytest.raises(AttributeError):
            term.extra = 1
    with pytest.raises(AttributeError):
        Var(0).index = 1
    with pytest.raises(AttributeError):
        del Tri((Var(0), Var(1))).children


def test_product_nodes_reject_a_repeated_variable():
    with pytest.raises(MalformedExpression, match="^variable x0 appears more than once$"):
        Otimes((Var(0), Var(0)))
    # The least variable that repeats, wherever the overlaps are.
    with pytest.raises(MalformedExpression, match="^variable x1 appears more than once$"):
        Tri((Var(5), ox(Var(1), Var(5)), Var(1)))
    with pytest.raises(MalformedExpression):
        Var(-1)


def test_term_attributes_the_bench_oracle_reads():
    expr = parse_expression("(tri x0 (ox x1 x2) e)")
    assert type(expr).__name__ == "Tri" and repr(expr) == "Tri(Var(0), Otimes(Var(1), Var(2)))"
    low, high = expr.children
    assert low.index == 0 and type(high).__name__ == "Otimes"
    assert [c.index for c in high.children] == [1, 2]
    assert type(UNIT).__name__ == "Unit" and repr(UNIT) == "Unit"


def test_up_sets_keeps_no_cache():
    assert not hasattr(up_sets, "cache_info")


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


@pytest.mark.parametrize("text", ["x²", "(ox x0 x¹)", "x٣", "x０", "(tri x0 x٣)"])
def test_parse_accepts_ascii_digits_only(text):
    # str.isdigit accepts these: superscripts then failed in int(), and
    # Arabic-Indic or fullwidth digits read as x3 and x0.
    bad = next(tok for tok in text.replace("(", " ").replace(")", " ").split()
               if not tok.isascii())
    with pytest.raises(MalformedExpression, match=f"^unexpected token {bad!r}$"):
        parse_expression(text)


def test_parse_reads_any_depth():
    # Open products wait on a stack, not on recursion.  Alternating heads
    # keep every level: x_k sits below everything after it exactly when its
    # level is a tri.
    depth = 5000
    text = alternating_nest(depth)
    expr = parse_expression(text)
    expected = from_pairs(
        depth + 1, ((k, j) for k in range(1, depth, 2) for j in range(k + 1, depth + 1))
    )
    assert evaluate(expr) == expected
    assert format_expression(expr) == text
    # Same-kind levels flatten into their parent, down to the one variable.
    assert parse_expression("(tri " * 1500 + "x0" + ")" * 1500) is Var(0)


def test_parse_element_cap():
    assert parse_expression(f"x{MAX_ELEMENTS - 1}") == Var(MAX_ELEMENTS - 1)
    assert parse_expression("(tri x007 x1)") == tri(Var(7), Var(1))
    for text in (f"x{MAX_ELEMENTS}", "x99999999999", "x" + "9" * 5000):
        with pytest.raises(MalformedExpression, match="out of range"):
            parse_expression(text)
    # Checked over the whole text before anything is built or matched.
    with pytest.raises(MalformedExpression, match="out of range"):
        parse_expression("(ox x0 x0 x99999999999")


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
