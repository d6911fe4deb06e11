import random
from itertools import permutations

import pytest

from depcalc import (
    ArityError,
    PreconditionError,
    SizeError,
    SizeMismatch,
    ZIGZAG,
    act,
    antichain,
    chain,
    disjoint_union,
    evaluate,
    expressible_covers,
    from_pairs,
    incomparability_witness,
    intersect,
    is_expressible,
    is_inclusion,
    join,
    linear_extensions,
    mu,
    parse_expression,
    singleton,
    substitute,
    terminal_cover_factorization,
    transitive_reduction,
    unit,
)
from depcalc.operad import MAX_COVER_BITS

from conftest import (
    all_posets,
    buildable_posets,
    oracle_act,
    oracle_intersect,
    oracle_witness,
    relation,
)

SMALL = [p for n in range(4) for p in all_posets(n)]  # every poset with n <= 3


# --- operad structure -------------------------------------------------------

def test_act_and_intersect_match_the_pair_set_oracle():
    for p in SMALL:
        for tau in permutations(range(p.size)):
            assert relation(act(tau, p)) == oracle_act(tau, p)
        for q in all_posets(p.size):
            assert relation(intersect([p, q])) == oracle_intersect([p, q])
        assert relation(intersect([p])) == oracle_intersect([p])


def test_act_relabels_a_long_chain_as_the_oracle_does():
    # The pair sets of chain(4096) hold 8,386,560 pairs, so the relabelling is
    # restated on rows: chain(n) relabelled is tau[0] < tau[1] < ... < tau[n-1].
    n = 4096
    tau = random.Random(n).sample(range(n), n)
    rows, above = [0] * n, 0
    for t in reversed(tau):
        rows[t] = above
        above |= 1 << t
    moved = act(tau, chain(n))
    assert moved.rows == tuple(rows)
    assert transitive_reduction(moved) == sorted(zip(tau, tau[1:]))
    tau = random.Random(256).sample(range(256), 256)
    assert relation(act(tau, chain(256))) == oracle_act(tau, chain(256))


def test_mu_is_substitution():
    a, b = ZIGZAG, chain(2)
    assert mu(chain(2), [a, b]) == join(a, b)
    assert mu(antichain(2), [a, b]) == disjoint_union(a, b)
    assert mu(antichain(2), [a, b]) == substitute(antichain(2), [a, b])


def test_unit_laws():
    assert unit() == singleton()
    for p in all_posets(3):
        assert mu(unit(), [p]) == p
        assert mu(p, [unit()] * 3) == p


def test_act_examples():
    assert act([0, 1], chain(2)) == chain(2)
    assert act([1, 0], chain(2)) == from_pairs(2, [(1, 0)])
    with pytest.raises(ArityError):
        act([0, 1], chain(3))
    with pytest.raises(ArityError):
        act([0, 0], chain(2))


def _block_permutation(tau, sizes):
    # where each block lands when the outer labels are permuted by tau
    n = len(sizes)
    new_offsets = [0] * n
    acc = 0
    for new_pos in range(n):
        old = tau.index(new_pos)
        new_offsets[old] = acc
        acc += sizes[old]
    old_offsets = [0] * n
    acc = 0
    for a in range(n):
        old_offsets[a] = acc
        acc += sizes[a]
    perm = [0] * acc
    for a in range(n):
        for k in range(sizes[a]):
            perm[old_offsets[a] + k] = new_offsets[a] + k
    return perm


def test_equivariance_exact_identity():
    # mu(act(tau, p), tau-moved parts) == blockwise relabeling of mu(p, parts)
    rng = random.Random(11)
    posets2 = list(all_posets(2))
    for _ in range(80):
        p = rng.choice(list(all_posets(3)))
        parts = [rng.choice(posets2) for _ in range(3)]
        tau = list(range(3))
        rng.shuffle(tau)
        moved_parts = [parts[tau.index(k)] for k in range(3)]
        block = _block_permutation(tau, [q.size for q in parts])
        assert mu(act(tau, p), moved_parts) == act(block, mu(p, parts))


def test_expressible_closed_under_mu_exhaustive():
    from itertools import product as iproduct

    from depcalc import Obstruction, decompose

    pool = [q for k in (1, 2, 3) for q in buildable_posets(k)]
    for n in (1, 2, 3):
        for p in buildable_posets(n):
            for parts in iproduct(pool, repeat=n):
                composite = mu(p, list(parts))
                assert not isinstance(decompose(composite), Obstruction)


def test_mu_example_with_zigzag_part():
    got = mu(antichain(2), [ZIGZAG, chain(2)])
    assert got == from_pairs(6, [(0, 1), (2, 1), (2, 3), (4, 5)])


# --- intersections and covers -------------------------------------------------

def test_intersect_examples():
    assert intersect([ZIGZAG]) == ZIGZAG
    assert intersect([chain(2), act([1, 0], chain(2))]) == antichain(2)
    with pytest.raises(SizeMismatch):
        intersect([chain(2), chain(3)])
    with pytest.raises(SizeMismatch):
        intersect([])


def test_intersect_cospan_recovers_zigzag():
    family = [
        evaluate(parse_expression("(tri (ox x0 x2) (ox x1 x3))")),
        evaluate(parse_expression("(tri x2 x0 (ox x1 x3))")),
        evaluate(parse_expression("(tri x2 (ox (tri x0 x1) x3))")),
    ]
    assert intersect(family) == ZIGZAG


def test_witness_trivial_antichain():
    assert incomparability_witness(antichain(2), (0, 1), 0, 1) == antichain(2)


def test_witness_zigzag_example():
    got = incomparability_witness(ZIGZAG, (2, 0, 3, 1), 0, 3)
    assert got == evaluate(parse_expression("(tri x2 (ox x0 x3) x1)"))


def test_witness_postconditions_on_separating_extensions():
    rng = random.Random(5)
    for n in (3, 4):
        for p in all_posets(n):
            for i in range(n):
                for j in range(i + 1, n):
                    if p.comparable(i, j):
                        continue
                    for ext in linear_extensions(p):
                        pos = {e: k for k, e in enumerate(ext)}
                        oriented = (i, j) if pos[i] < pos[j] else (j, i)
                        try:
                            w = incomparability_witness(p, ext, *oriented)
                        except PreconditionError:
                            continue
                        assert is_inclusion(p, w)
                        assert is_expressible(w)
                        assert not w.comparable(i, j)


def _outcome(build, p, ext, i, j):
    try:
        return build(p, ext, i, j)
    except PreconditionError as err:
        return str(err)


def _assert_witnesses_match_the_oracle(sizes, extensions_per_poset=None):
    for n in sizes:
        for p in all_posets(n):
            for ext in linear_extensions(p)[:extensions_per_poset]:
                for i, j in permutations(range(n), 2):
                    got = _outcome(incomparability_witness, p, ext, i, j)
                    assert got == _outcome(oracle_witness, p, ext, i, j), (p, ext, i, j)


def test_witness_matches_the_pair_list_oracle():
    # Witnesses and PreconditionError texts alike, every extension and pair.
    _assert_witnesses_match_the_oracle(range(5))


@pytest.mark.slow
def test_witness_matches_the_pair_list_oracle_on_five_elements():
    _assert_witnesses_match_the_oracle([5], extensions_per_poset=6)


def test_witness_precondition_errors():
    with pytest.raises(PreconditionError):
        incomparability_witness(chain(2), (0, 1), 0, 1)  # comparable pair
    with pytest.raises(PreconditionError):
        incomparability_witness(antichain(2), (1, 0), 0, 1)  # wrong order
    with pytest.raises(PreconditionError):
        incomparability_witness(antichain(2), (0, 0), 0, 1)  # not a permutation
    # literal construction cannot contain this poset for this extension
    p = from_pairs(4, [(0, 2), (1, 2)])
    with pytest.raises(PreconditionError):
        incomparability_witness(p, (0, 1, 2, 3), 0, 3)


def test_covers_past_the_guard_raise_before_building():
    assert (703 + 1) * 38 * 38 <= MAX_COVER_BITS < (741 + 1) * 39 * 39
    with pytest.raises(SizeError):
        expressible_covers(antichain(39))
    assert len(expressible_covers(chain(1024))) == 1  # no incomparable pair


def test_covers_reconstruct_small():
    for n in range(5):
        for p in all_posets(n):
            covers = expressible_covers(p)
            for cover in covers:
                assert is_expressible(cover)
                assert is_inclusion(p, cover)
            assert intersect(covers) == p


# --- terminal factorization ------------------------------------------------------

def test_terminal_factorization_identity_case():
    p = antichain(2)
    parts = [chain(2), singleton()]
    r = mu(p, parts)
    r_outer, r_parts = terminal_cover_factorization(r, p, parts)
    assert r_outer == p
    assert r_parts == parts


def test_terminal_factorization_chain_example():
    r_outer, r_parts = terminal_cover_factorization(
        chain(2), antichain(2), [singleton(), singleton()]
    )
    assert r_outer == chain(2)
    assert r_parts == [singleton(), singleton()]


def test_terminal_factorization_preconditions():
    with pytest.raises(PreconditionError):
        terminal_cover_factorization(chain(2), antichain(2), [singleton(), antichain(0)])
    with pytest.raises(PreconditionError):
        terminal_cover_factorization(antichain(2), chain(2), [singleton(), singleton()])
    with pytest.raises(PreconditionError):
        terminal_cover_factorization(ZIGZAG, antichain(4), [singleton()] * 4)


def _compositions(total, parts_count):
    if parts_count == 1:
        yield (total,)
        return
    for first in range(1, total - parts_count + 2):
        for rest in _compositions(total - first, parts_count - 1):
            yield (first,) + rest


def test_terminal_factorization_guarantees_and_terminality():
    rng = random.Random(9)
    cases = 0
    while cases < 40:
        total = rng.randint(2, 4)
        parts_count = rng.randint(1, total)
        sizes = rng.choice(list(_compositions(total, parts_count)))
        p = rng.choice(list(all_posets(parts_count)))
        parts = [rng.choice(list(all_posets(s))) for s in sizes]
        composite = mu(p, parts)
        r = rng.choice(
            [q for q in buildable_posets(total) if is_inclusion(composite, q)]
        )
        r_outer, r_parts = terminal_cover_factorization(r, p, parts)
        starts = [sum(sizes[:a]) for a in range(parts_count + 1)]
        blocks = [range(starts[a], starts[a + 1]) for a in range(parts_count)]
        assert r_outer == from_pairs(parts_count, [
            (a, b)
            for a, b in permutations(range(parts_count), 2)
            if all(r.lt(x, y) for x in blocks[a] for y in blocks[b])
        ])
        assert is_inclusion(p, r_outer)
        for part, r_part in zip(parts, r_parts):
            assert is_inclusion(part, r_part)
        assert is_inclusion(mu(r_outer, r_parts), r)
        # terminality against every composite between the bounds
        for q in all_posets(parts_count):
            for q_parts in _part_choices(sizes, rng):
                mid = mu(q, q_parts)
                if is_inclusion(composite, mid) and is_inclusion(mid, r):
                    assert is_inclusion(q, r_outer)
                    for qp, rp in zip(q_parts, r_parts):
                        assert is_inclusion(qp, rp)
        cases += 1


def _part_choices(sizes, rng, cap=30):
    # all tuples when small, a random sample otherwise
    import itertools

    pools = [list(all_posets(s)) for s in sizes]
    everything = list(itertools.product(*pools))
    if len(everything) > cap:
        everything = rng.sample(everything, cap)
    return everything
