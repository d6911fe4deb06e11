import random
from itertools import permutations

import pytest

from depcalc import (
    Obstruction,
    ZIGZAG,
    act,
    antichain,
    chain,
    decompose,
    disjoint_union,
    empty,
    evaluate,
    find_z,
    format_expression,
    from_pairs,
    induced,
    is_expressible,
    join,
    parse_expression,
    singleton,
    substitute,
)

from depcalc.expressible import _least_zigzag
from depcalc.expression import is_normal
from depcalc.poset import comparability_graph

from conftest import (
    all_posets,
    buildable_posets,
    dual_shapes,
    induces_zigzag,
    middle_out,
    mirror,
    opposite,
    oracle_find_z,
    random_sp_poset,
)

EXPR_POSET = from_pairs(4, [(0, 1), (0, 2), (2, 3)])  # x0 below x1, x2; x2 below x3


def test_find_z_examples():
    assert find_z(ZIGZAG) == Obstruction((0, 1, 2, 3))
    assert find_z(chain(4)) is None
    assert find_z(EXPR_POSET) is None


def test_find_z_lexicographically_least():
    # two disjoint zig-zags; the witness must come from the lower labels
    double = from_pairs(8, [(0, 1), (2, 1), (2, 3), (4, 5), (6, 5), (6, 7)])
    assert find_z(double) == Obstruction((0, 1, 2, 3))


def _oracle_witness(p):
    quad = oracle_find_z(p)
    return None if quad is None else Obstruction(quad)


def _whole_scan(p):
    """The zig-zag scan run once over every element: no split, no prime part."""
    return _least_zigzag(p.rows, comparability_graph(p), (1 << p.size) - 1)


def test_find_z_is_the_oracles_least_witness():
    for n in range(6):
        for p in all_posets(n):
            assert find_z(p) == _oracle_witness(p)


def test_find_z_least_witness_on_seeded_posets():
    rng = random.Random(20261018)
    for n in range(4, 13):
        for _ in range(12):
            sp = random_sp_poset(rng, n)
            assert find_z(sp) is None and oracle_find_z(sp) is None
            planted = random_sp_poset(rng, n, planted=True)
            witness = find_z(planted)
            assert witness is not None and witness == _oracle_witness(planted)


@pytest.mark.slow
def test_find_z_is_the_oracles_least_witness_six():
    for p in all_posets(6):
        assert find_z(p) == _oracle_witness(p)


def test_find_z_on_large_posets():
    # Sizes where a four-nested-loop search takes close to a minute; the
    # planted witness was checked against such a search.
    assert find_z(chain(300)) is None
    planted = random_sp_poset(random.Random(1), 200, planted=True)
    assert find_z(planted) == Obstruction((33, 146, 79, 19))
    assert induced(planted, (33, 146, 79, 19)) == ZIGZAG


def test_obstruction_induces_exactly_the_pattern():
    for n in range(4, 6):
        for p in all_posets(n):
            witness = find_z(p)
            if witness is not None:
                assert induced(p, witness.elements) == ZIGZAG


def test_is_expressible_examples():
    assert is_expressible(empty())
    assert not is_expressible(ZIGZAG)
    for p in all_posets(3):
        assert is_expressible(p)


def test_decompose_examples():
    assert format_expression(decompose(EXPR_POSET)) == "(tri x0 (ox x1 (tri x2 x3)))"
    assert format_expression(decompose(from_pairs(1, []))) == "x0"
    assert decompose(ZIGZAG) == Obstruction((0, 1, 2, 3))


def test_decompose_matches_brute_force_search():
    for n in range(6):
        builds = buildable_posets(n)
        for p in all_posets(n):
            expressible = p in builds
            assert is_expressible(p) == expressible
            assert (find_z(p) is None) == expressible
            result = decompose(p)
            assert isinstance(result, Obstruction) != expressible


def _prime_shape(rng, n):
    """A poset on at most n elements built from zig-zags and random
    series-parallel parts by disjoint union, join and substitution into the
    zig-zag, so it can hold several prime parts, and prime parts with modules."""
    kind = rng.choice(("sp", "zigzag", "union", "join", "blow-up")) if n >= 4 else "sp"
    if kind == "sp":
        return random_sp_poset(rng, rng.randint(1, n))
    if kind == "zigzag":
        return ZIGZAG
    if kind == "blow-up":
        return substitute(ZIGZAG, [_prime_shape(rng, n // 4) for _ in range(4)])
    k = rng.randint(1, n - 1)
    combine = disjoint_union if kind == "union" else join
    return combine(_prime_shape(rng, k), _prime_shape(rng, n - k))


def test_decompose_least_witness_across_prime_parts():
    # Each shape under its own labels, a random relabelling and the
    # middle-out one: decompose's witness, found part by part, is the
    # whole-poset scan's and the oracle's, and find_z reads it.
    rng = random.Random(20261020)
    blocked = 0
    for _ in range(200):
        p = _prime_shape(rng, 16)
        n = p.size
        for tau in (range(n), rng.sample(range(n), n), middle_out(n)):
            q = act(list(tau), p)
            expected, result = _oracle_witness(q), decompose(q)
            assert find_z(q) == _whole_scan(q) == expected
            assert (result if isinstance(result, Obstruction) else None) == expected
            blocked += expected is not None
    assert blocked >= 400
    # Two zig-zags; element 0 is the d of the first, whose witness is
    # (5, 6, 7, 0), so the least witness lies in the part expanded second.
    q = act([5, 6, 7, 0, 1, 2, 3, 4], disjoint_union(ZIGZAG, ZIGZAG))
    assert decompose(q) == _whole_scan(q) == _oracle_witness(q) == Obstruction((1, 2, 3, 4))


def test_decompose_keeps_no_copy_of_a_prime_part():
    # A prime part is scanned in place: no induced sub-poset enters a memo.
    p = join(chain(2), disjoint_union(substitute(ZIGZAG, [chain(3), antichain(2), chain(1),
                                                          chain(5)]), ZIGZAG))
    before = find_z.cache_info().currsize, decompose.cache_info().currsize
    assert decompose.__wrapped__(p) == Obstruction((2, 5, 7, 8))
    assert (find_z.cache_info().currsize, decompose.cache_info().currsize) == before


def test_decompose_builds_normal_terms():
    # normal_form builds each product node directly, without ox and tri.
    for n in range(6):
        for p in all_posets(n):
            result = decompose(p)
            assert isinstance(result, Obstruction) or is_normal(result)
    rng = random.Random(1515)
    for n in (6, 16, 64, 256):
        for _ in range(3):
            p = random_sp_poset(rng, n)
            expr = decompose(p)
            assert is_normal(expr) and evaluate(expr) == p


def test_decompose_roundtrip_small():
    for n in range(6):
        for p in buildable_posets(n):
            expr = decompose(p)
            assert not isinstance(expr, Obstruction)
            assert evaluate(expr) == p


def test_smallposets_expressions():
    # the seven shapes on two and three elements
    texts = [
        "(ox x0 x1)",
        "(tri x0 x1)",
        "(ox x0 x1 x2)",
        "(ox x0 (tri x1 x2))",
        "(tri x0 (ox x1 x2))",
        "(tri (ox x0 x1) x2)",
        "(tri x0 x1 x2)",
    ]
    posets = [evaluate(parse_expression(t)) for t in texts]
    assert len(set(posets)) == len(posets)

    # up to relabeling they cover every expressible poset on 2..3 elements
    def orbit(p):
        return {
            from_pairs(p.size, [(perm[i], perm[j]) for i, j in p.pairs()])
            for perm in permutations(range(p.size))
        }

    covered = set()
    for p in posets:
        covered |= orbit(p)
    everything = {q for n in (2, 3) for q in all_posets(n)}
    assert covered == everything  # n <= 3: every poset is expressible


def test_decompose_obstruction_inside_larger_poset():
    # zig-zag living on a subset of a bigger poset
    p = from_pairs(6, [(1, 2), (3, 2), (3, 4), (0, 1), (0, 3), (0, 4), (0, 2), (0, 5)])
    result = decompose(p)
    assert isinstance(result, Obstruction)
    assert induced(p, result.elements) == ZIGZAG


def test_antichain_and_chain_decompositions():
    assert format_expression(decompose(antichain(3))) == "(ox x0 x1 x2)"
    assert format_expression(decompose(chain(3))) == "(tri x0 x1 x2)"


def test_decompose_long_chain_peels_without_recursion():
    # Numbered upward, top down, middle-out and at random: the series factors
    # come lowest first whatever their labels.
    n = 2000
    up = list(range(n))
    for tau in (up, up[::-1], middle_out(n), random.Random(2000).sample(up, n)):
        expected = "(tri " + " ".join(f"x{t}" for t in tau) + ")"
        assert format_expression(decompose(act(tau, chain(n)))) == expected


def test_decompose_obstruction_is_the_oracles_least_witness():
    for n in range(6):
        for p in all_posets(n):
            result = decompose(p)
            expected = _oracle_witness(p)
            assert (result if isinstance(result, Obstruction) else None) == expected


@pytest.mark.slow
def test_decompose_obstruction_is_the_whole_scans_six():
    # The least zig-zag of the prime parts is the poset's least zig-zag.
    for p in all_posets(6):
        result = decompose(p)
        assert (result if isinstance(result, Obstruction) else None) == _whole_scan(p)


def test_decompose_of_the_opposite_is_the_mirror():
    # Reversing the order mirrors the normal form; a zig-zag read backwards is
    # a zig-zag of the opposite, so the opposite's least one is no greater.
    kinds = [0, 0]
    for p in dual_shapes():
        dual = opposite(p)
        result, other = decompose(p), decompose(dual)
        if isinstance(result, Obstruction):
            backwards = result.elements[::-1]
            assert induces_zigzag(dual, backwards)
            assert isinstance(other, Obstruction) and induces_zigzag(dual, other.elements)
            assert other.elements <= backwards
        else:
            assert other is mirror(result)
        kinds[isinstance(result, Obstruction)] += 1
    assert kinds == [3010 + 8, 1464 + 8]  # the posets with n <= 5, then the drawn ones


def test_decompose_reports_the_least_zigzag_not_the_first_part_split():
    # The part holding a bottom element under a zig-zag is expanded first,
    # but the least zig-zag lies in the other component.
    p = act([7, 6, 8, 2, 0, 4, 3, 5, 1], disjoint_union(join(singleton(), ZIGZAG), ZIGZAG))
    assert _whole_scan(p) == Obstruction((4, 3, 5, 1))
    assert decompose(p) == Obstruction((4, 3, 5, 1))


def test_recognition_with_thousands_of_elements():
    long_chain = chain(3000)
    assert evaluate(decompose(long_chain)) == long_chain
    assert is_expressible(random_sp_poset(random.Random(2048), 2048))
    beside = disjoint_union(long_chain, ZIGZAG)
    assert decompose(beside) == Obstruction((3000, 3001, 3002, 3003))
