import random
from itertools import permutations, product

import pytest

from depcalc import (
    ArityError,
    FinitePolynomial,
    InvalidExtension,
    SizeError,
    ZIGZAG,
    antichain,
    boxtimes_poly,
    chain,
    comparitor,
    compose,
    decompose,
    dirichlet,
    empty,
    interchanger,
    is_inclusion,
    is_valid_morphism,
    linear_extensions,
    poly,
    signature,
)
from depcalc.expression import Otimes, Unit, Var
from depcalc import polynomial
from depcalc.polynomial import (
    IDENTITY,
    MAX_COMPOSE_ENTRIES,
    PolyMorphism,
    compose_morphisms,
    format_polynomial,
    from_json_dict,
    to_json_dict,
)

from conftest import all_posets, buildable_posets, strategy_oracle

Y = IDENTITY
TINY = [poly(), poly(0), poly(1), poly(2), poly(0, 0), poly(1, 0), poly(1, 1), poly(2, 1)]


def sig(p):
    return signature(p).counts


def counting(p):
    """Classical counting polynomial as a coefficient dict exponent -> count."""
    out = {}
    for d in p.directions:
        out[d] = out.get(d, 0) + 1
    return out


def poly_value(coeffs, x):
    return sum(c * x**e for e, c in coeffs.items())


# --- products ----------------------------------------------------------------

def test_signature_examples():
    assert sig(poly(1, 0)) == (1, 0)
    assert sig(poly(2)) == (2,)
    assert sig(dirichlet(poly(1, 0), poly(1, 0))) == (1, 0, 0, 0)


def test_dirichlet_example():
    got = dirichlet(poly(2, 1), poly(1, 0))
    assert got.directions == (2, 0, 1, 0)
    assert sig(got) == (2, 1, 0, 0)
    assert format_polynomial(got) == "y^2 + y + 2"


def test_dirichlet_unit_and_symmetry():
    for p in TINY:
        assert sig(dirichlet(p, Y)) == sig(p)
        assert sig(dirichlet(Y, p)) == sig(p)
        for q in TINY:
            assert sig(dirichlet(p, q)) == sig(dirichlet(q, p))


def test_compose_example():
    got = compose(poly(2, 1), poly(1, 0))
    assert sig(got) == (2, 1, 1, 1, 0, 0)
    assert format_polynomial(got) == "y^2 + 3y + 2"


def test_compose_units():
    for p in TINY:
        assert compose(p, Y) == p
        assert sig(compose(Y, p)) == sig(p)


def test_compose_associative_at_signature_level():
    rng = random.Random(17)
    small = [poly(), poly(0), poly(1), poly(1, 0), poly(2)]
    for _ in range(40):
        a, b, c = (rng.choice(small) for _ in range(3))
        assert sig(compose(compose(a, b), c)) == sig(compose(a, compose(b, c)))


def test_counting_homomorphism_exhaustive():
    # all polynomials with <= 3 positions, direction counts <= 2
    polys = [poly(*ds) for n in range(4) for ds in product((0, 1, 2), repeat=n)]
    for p in polys:
        for q in polys:
            both = compose(p, q)
            assert len(both.directions) == poly_value(counting(p), len(q.directions))
            ten = dirichlet(p, q)
            assert len(ten.directions) == len(p.directions) * len(q.directions)
            # evaluating the counting polynomial agrees with substitution
            for x in range(4):
                assert poly_value(counting(both), x) == poly_value(
                    counting(p), poly_value(counting(q), x)
                )
                assert poly_value(counting(ten), x * x) >= 0  # shape sanity


# --- morphisms -----------------------------------------------------------------

def test_comparitor_single_position_is_bijection():
    p, q = poly(1, 0), poly(2)
    m = comparitor(p, q)
    assert is_valid_morphism(m)
    assert sorted(m.position_map) == list(range(compose(p, q).positions))


def test_comparitor_from_identity_directions():
    p, q = poly(1), poly(1, 0)
    m = comparitor(p, q)
    assert is_valid_morphism(m)
    # all functions out of a single direction are constant: every composite
    # position is hit
    assert sorted(m.position_map) == list(range(compose(p, q).positions))


def test_comparitor_always_valid():
    for p in TINY:
        for q in TINY:
            m = comparitor(p, q)
            assert m.source == dirichlet(p, q)
            assert m.target == compose(p, q)
            assert is_valid_morphism(m)


def _relabel_morphism(p, perm):
    """Position-permuting endomorphism p -> permuted p (counts preserved)."""
    target = FinitePolynomial(tuple(p.directions[perm.index(k)] for k in range(len(perm))))
    direction_maps = tuple(tuple(range(p.directions[k])) for k in range(p.positions))
    return PolyMorphism(p, target, tuple(perm), direction_maps)


def _dirichlet_on_relabelings(p, q, mp, mq):
    source = dirichlet(p, q)
    target = dirichlet(mp.target, mq.target)
    nq = q.positions
    position_map = []
    direction_maps = []
    for i in range(p.positions):
        for j in range(nq):
            position_map.append(mp.position_map[i] * nq + mq.position_map[j])
            direction_maps.append(tuple(range(p.directions[i] * q.directions[j])))
    return PolyMorphism(source, target, tuple(position_map), tuple(direction_maps))


def _compose_on_relabelings(p, q, mp, mq):
    source = compose(p, q)
    target = compose(mp.target, mq.target)
    nq = q.positions
    # target group offsets by target position of p
    offsets = []
    acc = 0
    for d in mp.target.directions:
        offsets.append(acc)
        acc += nq**d
    position_map = []
    direction_maps = []
    for i in range(p.positions):
        for f in product(range(nq), repeat=p.directions[i]):
            moved = [mq.position_map[j] for j in f]
            rank = 0
            for value in moved:
                rank = rank * nq + value
            position_map.append(offsets[mp.position_map[i]] + rank)
            count = sum(q.directions[j] for j in f)
            direction_maps.append(tuple(range(count)))
    return PolyMorphism(source, target, tuple(position_map), tuple(direction_maps))


def test_comparitor_naturality_under_position_relabelings():
    cases = [(poly(1, 0), poly(2, 1)), (poly(2), poly(1, 0)), (poly(1, 1), poly(0, 1))]
    for p, q in cases:
        for perm_p in permutations(range(p.positions)):
            for perm_q in permutations(range(q.positions)):
                mp = _relabel_morphism(p, list(perm_p))
                mq = _relabel_morphism(q, list(perm_q))
                if mp.target.directions != p.directions and sorted(
                    mp.target.directions
                ) != sorted(p.directions):
                    continue
                left = compose_morphisms(comparitor(p, q), _compose_on_relabelings(p, q, mp, mq))
                right = compose_morphisms(
                    _dirichlet_on_relabelings(p, q, mp, mq),
                    comparitor(mp.target, mq.target),
                )
                assert left == right


def test_interchanger_identity_like_on_units():
    m = interchanger(Y, Y, Y, Y)
    assert is_valid_morphism(m)
    assert m.position_map == (0,)
    assert m.direction_maps == ((0,),)


def test_interchanger_example_injective():
    m = interchanger(poly(1, 0), poly(1), poly(0), poly(1))
    assert is_valid_morphism(m)
    assert len(set(m.position_map)) == len(m.position_map)


def test_interchanger_always_valid():
    rng = random.Random(23)
    for _ in range(60):
        p, q, r, s = (rng.choice(TINY) for _ in range(4))
        m = interchanger(p, q, r, s)
        assert m.source == dirichlet(compose(p, q), compose(r, s))
        assert m.target == compose(dirichlet(p, r), dirichlet(q, s))
        assert is_valid_morphism(m)


def test_interchanger_unit_specialization_is_comparitor():
    # with the two middle arguments trivial, interchanging is exactly comparing
    for p in TINY:
        for s in TINY:
            assert interchanger(p, Y, Y, s) == comparitor(p, s)


def test_compose_guard_counts_entries(monkeypatch):
    # compose(poly(2, 0), poly(1, 1, 1)) enumerates 3**2 functions of length 2
    # plus one empty function: 19 entries.
    p, q = poly(2, 0), poly(1, 1, 1)
    monkeypatch.setattr(polynomial, "MAX_COMPOSE_ENTRIES", 19)
    assert compose(p, q).directions == (2,) * 9 + (0,)
    monkeypatch.setattr(polynomial, "MAX_COMPOSE_ENTRIES", 18)
    with pytest.raises(SizeError):
        compose(p, q)


def test_compose_guard_raises_before_enumerating():
    with pytest.raises(SizeError):
        compose(poly(12), poly(*[1] * 10))  # 10**12 positions
    with pytest.raises(SizeError):
        compose(poly(10**9), poly(1, 1))  # 2**(10**9) is never evaluated
    with pytest.raises(SizeError):
        compose(poly(10**9), poly(7))  # one function, but of length 10**9
    with pytest.raises(SizeError):
        compose(poly(*[0] * (MAX_COMPOSE_ENTRIES + 1)), poly(1))
    assert compose(poly(20), poly(7)).directions == (140,)


def test_interchanger_guard():
    # One position each, but 3,000 x 3,000 directions to pull back.
    with pytest.raises(SizeError):
        interchanger(poly(1), poly(3000), poly(1), poly(3000))
    with pytest.raises(SizeError):
        interchanger(poly(12), poly(*[1] * 10), Y, Y)
    assert is_valid_morphism(interchanger(poly(1), poly(30), poly(1), poly(30)))


# --- the poset-indexed product ----------------------------------------------------

def test_boxtimes_chain_is_compose_fold():
    p, q, r = poly(1, 0), poly(2), poly(1, 1)
    direct = boxtimes_poly(chain(3), [p, q, r], (0, 1, 2))
    assert sig(direct) == sig(compose(compose(p, q), r))


def test_boxtimes_antichain_is_dirichlet_fold():
    p, q, r = poly(1, 0), poly(2), poly(1, 1)
    direct = boxtimes_poly(antichain(3), [p, q, r], (0, 1, 2))
    assert sig(direct) == sig(dirichlet(dirichlet(p, q), r))


def test_boxtimes_unit_laws():
    assert boxtimes_poly(empty(), [], ()) == Y
    for p in TINY:
        assert boxtimes_poly(chain(1), [p], (0,)) == p


def test_boxtimes_errors():
    with pytest.raises(ArityError):
        boxtimes_poly(chain(2), [Y], (0, 1))
    with pytest.raises(InvalidExtension):
        boxtimes_poly(chain(2), [Y, Y], (1, 0))
    with pytest.raises(SizeError):
        boxtimes_poly(chain(5), [Y] * 5, (0, 1, 2, 3, 4))
    with pytest.raises(SizeError):
        boxtimes_poly(chain(1), [poly(1, 1, 1, 1, 1)], (0,))


def test_boxtimes_zigzag_against_strategy_oracle():
    parts = [poly(1, 0)] * 4
    for ell in linear_extensions(ZIGZAG):
        got = boxtimes_poly(ZIGZAG, parts, ell)
        assert sig(got) == strategy_oracle(ZIGZAG, parts, ell)


def test_boxtimes_oracle_random():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(0, 3)
        p = rng.choice(list(all_posets(n)))
        parts = [rng.choice(TINY) for _ in range(n)]
        ell = rng.choice(linear_extensions(p)) if n else ()
        assert sig(boxtimes_poly(p, parts, ell)) == strategy_oracle(p, parts, ell)


def test_boxtimes_extension_independent():
    rng = random.Random(43)
    for n in range(4):
        for p in all_posets(n):
            parts = [rng.choice(TINY) for _ in range(n)]
            sigs = {
                sig(boxtimes_poly(p, parts, ell)) for ell in linear_extensions(p)
            } or {sig(boxtimes_poly(p, [], ()))}
            assert len(sigs) == 1


def _eval_poly_expression(expr, parts):
    if isinstance(expr, Unit):
        return Y
    if isinstance(expr, Var):
        return parts[expr.index]
    values = [_eval_poly_expression(c, parts) for c in expr.children]
    out = values[0]
    for v in values[1:]:
        out = dirichlet(out, v) if isinstance(expr, Otimes) else compose(out, v)
    return out


def test_boxtimes_matches_expression_evaluation():
    rng = random.Random(47)
    for n in range(4):
        for p in buildable_posets(n):
            parts = [rng.choice([poly(1, 0), poly(2), poly(1)]) for _ in range(n)]
            ell = linear_extensions(p)[0] if n else ()
            direct = boxtimes_poly(p, parts, ell)
            via_expr = _eval_poly_expression(decompose(p), parts)
            assert sig(direct) == sig(via_expr)


def test_position_count_monotone_when_directions_positive():
    rng = random.Random(53)
    positive = [poly(1), poly(2), poly(1, 1), poly(2, 1)]
    for n in range(4):
        posets = list(all_posets(n))
        for p in posets:
            parts = [rng.choice(positive) for _ in range(n)]
            ell = linear_extensions(p)[0] if n else ()
            base = boxtimes_poly(p, parts, ell).positions
            for q in posets:
                if is_inclusion(p, q):
                    ell_q = linear_extensions(q)[0] if n else ()
                    assert base <= boxtimes_poly(q, parts, ell_q).positions


def test_position_count_not_monotone_with_empty_directions():
    # regression fixture: constants collapse on empty-direction positions
    parts = [poly(1, 0), poly(1, 0)]
    wide = boxtimes_poly(antichain(2), parts, (0, 1))
    narrow = boxtimes_poly(chain(2), parts, (0, 1))
    assert is_inclusion(antichain(2), chain(2))
    assert wide.positions == 4 and narrow.positions == 3


def test_json_roundtrip():
    for p in TINY:
        assert from_json_dict(to_json_dict(p)) == p
    with pytest.raises(ValueError):
        from_json_dict({"positions": [-1]})
    with pytest.raises(ValueError):
        from_json_dict({})
    for bad in ([True], [1.5], [2, False]):
        with pytest.raises(ValueError):
            from_json_dict({"positions": bad})
