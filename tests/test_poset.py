import json
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depcalc import (
    CycleError,
    Embedding,
    FinitePoset,
    SizeError,
    ZIGZAG,
    act,
    antichain,
    chain,
    chains,
    connected_components,
    disjoint_union,
    empty,
    enumerate_posets,
    from_pairs,
    full_embeddings,
    induced,
    is_inclusion,
    join,
    linear_extension,
    linear_extensions,
    singleton,
    substitute,
    transitive_reduction,
)
from depcalc.poset import from_json_dict, is_linear_extension, to_dot, to_json_dict

from conftest import (
    all_posets,
    oracle_count_posets,
    oracle_covers,
    oracle_induced,
    oracle_join,
    oracle_substitute,
    oracle_union,
    relation,
)

SMALL = [p for n in range(4) for p in all_posets(n)]  # every poset with n <= 3


def itertools_permutations(n):
    return permutations(range(n))


# --- construction -----------------------------------------------------------

def test_from_pairs_zigzag():
    z = from_pairs(4, [(0, 1), (2, 1), (2, 3)])
    assert z == ZIGZAG
    assert z.pairs() == [(0, 1), (2, 1), (2, 3)]


def test_from_pairs_antichain():
    assert from_pairs(3, []) == antichain(3)


def test_from_pairs_cycle():
    with pytest.raises(CycleError):
        from_pairs(2, [(0, 1), (1, 0)])
    with pytest.raises(CycleError):
        from_pairs(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(CycleError):
        from_pairs(1, [(0, 0)])


def test_from_pairs_out_of_range():
    with pytest.raises(IndexError):
        from_pairs(2, [(0, 2)])


def test_closure_computed():
    p = from_pairs(3, [(0, 1), (1, 2)])
    assert p == chain(3)
    assert p.lt(0, 2)


def test_constructor_rejects_badly_shaped_rows():
    for size, rows in ((2, (0,)), (1, (0, 0)), (2, (4, 0)), (2, (0, -1)), (-1, ())):
        with pytest.raises(ValueError):
            FinitePoset(size, rows)


def test_check_valid_names_the_failing_axiom():
    cases = [
        (FinitePoset(1, (1,)), "irreflexivity violated at 0"),
        (FinitePoset(2, (2, 1)), "antisymmetry violated at (0, 1)"),
        (FinitePoset(3, (2, 4, 0)), "not transitively closed at (0, 1, 2)"),
    ]
    for p, message in cases:
        with pytest.raises(ValueError) as err:
            p.check_valid()
        assert str(err.value) == message


def test_closure_idempotent_on_all_small_posets():
    for n in range(5):
        for p in all_posets(n):
            assert from_pairs(n, p.pairs()) == p
            p.check_valid()


# --- disjoint union and join -------------------------------------------------

def test_union_and_join_examples():
    assert disjoint_union(singleton(), singleton()) == antichain(2)
    assert join(singleton(), singleton()) == chain(2)
    assert disjoint_union(chain(2), chain(2)) == from_pairs(4, [(0, 1), (2, 3)])
    assert join(antichain(2), antichain(2)) == from_pairs(
        4, [(0, 2), (0, 3), (1, 2), (1, 3)]
    )


def test_unit_laws():
    for p in all_posets(3):
        assert disjoint_union(p, empty()) == p
        assert disjoint_union(empty(), p) == p
        assert join(p, empty()) == p
        assert join(empty(), p) == p


def test_strict_associativity():
    ps = list(all_posets(2))
    for a in ps:
        for b in ps:
            for c in ps:
                assert disjoint_union(disjoint_union(a, b), c) == disjoint_union(
                    a, disjoint_union(b, c)
                )
                assert join(join(a, b), c) == join(a, join(b, c))


def test_union_symmetric_up_to_block_swap():
    for a in all_posets(2):
        for b in all_posets(2):
            swapped = disjoint_union(b, a)
            perm = list(range(b.size, b.size + a.size)) + list(range(b.size))
            # relabel a+b by moving a's block after b's block
            assert act(perm, disjoint_union(a, b)) == swapped


def test_interchange_inclusion_with_explicit_permutation():
    # (P join Q) disjoint (R join S) includes into (P disjoint R) join (Q disjoint S)
    # after interleaving the four blocks from [P,Q,R,S] order to [P,R,Q,S] order.
    blocks = [chain(2), antichain(2), singleton(), chain(3)]
    p, q, r, s = blocks
    lhs = disjoint_union(join(p, q), join(r, s))
    rhs = join(disjoint_union(p, r), disjoint_union(q, s))
    sizes = [b.size for b in blocks]
    perm = (
        list(range(p.size))
        + [p.size + r.size + k for k in range(q.size)]
        + [p.size + k for k in range(r.size)]
        + [p.size + q.size + r.size + k for k in range(s.size)]
    )
    assert is_inclusion(act(perm, lhs), rhs)


def test_union_and_join_match_the_pair_set_oracle():
    for p in SMALL:
        for q in SMALL:
            assert relation(disjoint_union(p, q)) == oracle_union(p, q)
            assert relation(join(p, q)) == oracle_join(p, q)


def test_large_join_builds_rows_directly():
    assert join(chain(1000), chain(1000)) == chain(2000)


# --- substitution ------------------------------------------------------------

def test_substitute_specializations():
    a, b = chain(2), antichain(3)
    assert substitute(antichain(2), [a, b]) == disjoint_union(a, b)
    assert substitute(chain(2), [a, b]) == join(a, b)
    assert substitute(ZIGZAG, [singleton()] * 4) == ZIGZAG


def test_substitute_matches_the_pair_set_oracle():
    # Every outer poset with n <= 3, every choice of parts with n <= 2.
    parts_pool = [p for n in range(3) for p in all_posets(n)]
    for p in SMALL:
        for parts in product(parts_pool, repeat=p.size):
            assert relation(substitute(p, list(parts))) == oracle_substitute(p, parts)


def test_substitute_arity():
    from depcalc import ArityError

    with pytest.raises(ArityError):
        substitute(chain(2), [singleton()])


def test_substitute_operad_associativity():
    outer = from_pairs(2, [(0, 1)])
    qs = [antichain(2), chain(2)]
    rss = [[chain(2), singleton()], [antichain(2), singleton()]]
    flat = [r for rs in rss for r in rs]
    lhs = substitute(substitute(outer, qs), flat)
    rhs = substitute(outer, [substitute(q, rs) for q, rs in zip(qs, rss)])
    assert lhs == rhs


def test_substitute_unit_laws():
    for p in all_posets(3):
        assert substitute(p, [singleton()] * 3) == p
    assert substitute(singleton(), [ZIGZAG]) == ZIGZAG


# --- inclusion and embeddings -------------------------------------------------

def test_is_inclusion():
    assert is_inclusion(antichain(2), chain(2))
    assert not is_inclusion(chain(2), antichain(2))
    for p in all_posets(3):
        assert is_inclusion(p, p)
    assert not is_inclusion(antichain(2), antichain(3))


def test_full_embeddings_of_zigzag():
    selfmaps = full_embeddings(ZIGZAG, ZIGZAG)
    assert Embedding((0, 1, 2, 3)) in selfmaps
    assert selfmaps == [Embedding((0, 1, 2, 3))]  # rigid pattern
    assert full_embeddings(ZIGZAG, chain(4)) == []
    expr_poset = from_pairs(4, [(0, 1), (0, 2), (2, 3)])
    assert full_embeddings(ZIGZAG, expr_poset) == []


def test_full_embeddings_reflect_order():
    # monotone maps that are not full are excluded: antichain embeds into a
    # chain injectively and monotonically, but never fully
    assert full_embeddings(antichain(2), chain(2)) == []
    assert len(full_embeddings(antichain(2), antichain(3))) == 6


# --- extensions, chains, components -------------------------------------------

def test_linear_extensions_counts():
    assert linear_extensions(chain(3)) == [(0, 1, 2)]
    assert sorted(linear_extensions(antichain(2))) == [(0, 1), (1, 0)]
    brute = [
        perm
        for perm in itertools_permutations(4)
        if all(perm.index(i) < perm.index(j) for i, j in ZIGZAG.pairs())
    ]
    assert sorted(linear_extensions(ZIGZAG)) == sorted(brute)
    assert len(brute) == 5


def test_linear_extension_is_the_first_extension():
    for n in range(6):
        for p in all_posets(n):
            assert linear_extension(p) == linear_extensions(p)[0]


def test_every_extension_is_a_containing_chain():
    for p in all_posets(4):
        exts = linear_extensions(p)
        assert exts
        for ext in exts:
            assert is_linear_extension(p, ext)
            chain_pairs = [
                (ext[a], ext[b]) for a in range(4) for b in range(a + 1, 4)
            ]
            assert is_inclusion(p, from_pairs(4, chain_pairs))


def test_chains():
    assert set(chains(antichain(2))) == {(0,), (1,)}
    assert set(chains(chain(2))) == {(0,), (1,), (0, 1)}
    # exhaustive subset filter oracle for the zig-zag
    from itertools import permutations

    brute = set()
    for size in range(1, 5):
        for seq in permutations(range(4), size):
            if all(ZIGZAG.lt(seq[k], seq[k + 1]) for k in range(size - 1)):
                brute.add(seq)
    assert set(chains(ZIGZAG)) == brute


def test_connected_components():
    assert connected_components(antichain(3)) == [(0,), (1,), (2,)]
    assert connected_components(ZIGZAG) == [(0, 1, 2, 3)]
    assert connected_components(disjoint_union(chain(2), chain(2))) == [(0, 1), (2, 3)]


def test_transitive_reduction():
    assert transitive_reduction(chain(3)) == [(0, 1), (1, 2)]
    assert transitive_reduction(antichain(4)) == []
    p = join(singleton(), antichain(2))
    assert transitive_reduction(p) == [(0, 1), (0, 2)]
    for q in all_posets(4):
        assert from_pairs(4, transitive_reduction(q)) == q


def test_transitive_reduction_matches_the_pair_set_oracle():
    for p in SMALL:
        assert transitive_reduction(p) == oracle_covers(p)


def test_large_transitive_reduction():
    assert len(transitive_reduction(chain(1000))) == 999


def test_above_and_below_match_the_pairs():
    for p in SMALL:
        for e in range(p.size):
            assert p.above(e) == tuple(j for i, j in p.pairs() if i == e)
            assert p.below(e) == tuple(sorted(i for i, j in p.pairs() if j == e))


# --- enumeration ---------------------------------------------------------------

def test_enumerate_counts_against_subset_oracle():
    for n in range(5):
        assert len(all_posets(n)) == oracle_count_posets(n)


def test_enumerate_validity_and_distinctness():
    for n in range(5):
        seen = set()
        for p in all_posets(n):
            p.check_valid()
            assert p.size == n
            assert p not in seen
            seen.add(p)


def test_enumerate_guard():
    with pytest.raises(SizeError):
        list(enumerate_posets(7))
    with pytest.raises(SizeError):
        list(enumerate_posets(-1))


# --- induced subposets -----------------------------------------------------------

def test_induced():
    assert induced(ZIGZAG, [0, 1]) == chain(2)
    assert induced(ZIGZAG, [0, 3]) == antichain(2)
    assert induced(ZIGZAG, [2, 1, 3]) == from_pairs(3, [(0, 1), (0, 2)])


def test_induced_matches_the_pair_set_oracle():
    for p in SMALL:
        for k in range(p.size + 1):
            for elements in permutations(range(p.size), k):
                assert relation(induced(p, elements)) == oracle_induced(p, elements)


# --- serialization ----------------------------------------------------------------

def test_json_roundtrip():
    for p in all_posets(4)[::7]:
        assert from_json_dict(json.loads(json.dumps(to_json_dict(p)))) == p


def test_json_computes_closure():
    p = from_json_dict({"elements": 3, "relations": [[0, 1], [1, 2]]})
    assert p == chain(3)


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        from_json_dict({"relations": []})
    with pytest.raises(ValueError):
        from_json_dict({"elements": -1})
    with pytest.raises(ValueError):
        from_json_dict({"elements": 2, "relations": [[0]]})
    for bad in (
        {"elements": 3, "relations": [[0, 1.7]]},
        {"elements": 3, "relations": [[0, True]]},
        {"elements": True, "relations": []},
        {"elements": 2.0},
    ):
        with pytest.raises(ValueError):
            from_json_dict(bad)


def test_dot_export():
    text = to_dot(chain(2))
    assert "digraph poset" in text
    assert "0 -> 1;" in text
    assert to_dot(ZIGZAG).count("->") == 3


# --- randomized act laws -----------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.data())
def test_act_composition(data):
    n = data.draw(st.integers(min_value=0, max_value=4))
    p = data.draw(st.sampled_from(list(all_posets(n))))
    tau = data.draw(st.permutations(list(range(n))))
    sigma = data.draw(st.permutations(list(range(n))))
    composed = [tau[sigma[i]] for i in range(n)]
    assert act(composed, p) == act(tau, act(sigma, p))
    assert act(list(range(n)), p) == p
