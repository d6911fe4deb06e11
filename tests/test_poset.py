import copy
import json
import pickle
import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depcalc import (
    CycleError,
    FinitePoset,
    SizeError,
    ZIGZAG,
    act,
    antichain,
    chain,
    connected_components,
    disjoint_union,
    empty,
    enumerate_posets,
    from_pairs,
    induced,
    is_inclusion,
    join,
    linear_extension,
    linear_extensions,
    singleton,
    substitute,
    transitive_reduction,
)
from depcalc import poset
from depcalc.poset import (
    MAX_ELEMENTS,
    comparability_graph,
    from_json_dict,
    is_linear_extension,
    to_dot,
    to_json_dict,
)

from conftest import (
    all_posets,
    oracle_chains,
    oracle_closure,
    oracle_comparable,
    oracle_count_posets,
    oracle_covers,
    oracle_find_z,
    oracle_induced,
    oracle_is_linear_extension,
    oracle_join,
    oracle_act,
    oracle_linear_extension,
    oracle_substitute,
    oracle_union,
    middle_out,
    random_sp_poset,
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


def _check_covers(p):
    """The covers p carries and the comparability masks read from them, against
    the pair-set oracles."""
    size = p.size
    assert [(i, j) for i, up in enumerate(p.covers) for j in range(size) if up >> j & 1] \
        == oracle_covers(p)
    near = comparability_graph(p)
    assert [frozenset(j for j in range(size) if m >> j & 1) for m in near] \
        == oracle_comparable(p)
    return p


def _check_core_against_oracles(size, pairs):
    """from_pairs, then each pass over its rows, against the pair-set oracles."""
    p = from_pairs(size, pairs)
    assert relation(p) == (size, oracle_closure(size, pairs))
    assert hasattr(p, "_covers")  # carried from the closure, not searched for
    _check_covers(p)
    assert linear_extension(p) == oracle_linear_extension(p)
    return p


def _top_down(p):
    """p relabelled by i -> n - 1 - i, so its least elements get the largest labels."""
    n = p.size
    return [(n - 1 - i, n - 1 - j) for i, j in p.pairs()]


def _middle_out(p):
    """p relabelled so the positions of its first linear extension get the labels
    of ``middle_out``, which neither rise nor fall along the order."""
    new = dict(zip(linear_extension(p), middle_out(p.size)))
    return [(new[i], new[j]) for i, j in p.pairs()]


def test_poset_core_matches_the_pair_set_oracles_on_every_small_poset():
    rng = random.Random(15)
    for n in range(5):
        for p in all_posets(n):
            shuffled = p.pairs() * 2
            rng.shuffle(shuffled)
            for pairs in (oracle_covers(p), p.pairs(), shuffled):
                assert _check_core_against_oracles(n, pairs) == p
            _check_core_against_oracles(n, _top_down(p))
            _check_core_against_oracles(n, _middle_out(p))


def test_poset_core_matches_the_pair_set_oracles_on_relabelled_sp_posets():
    rng = random.Random(2015)
    for n in (5, 9, 16, 33, 64, 128, 256):
        for planted in (False, True):
            p = random_sp_poset(rng, n, planted=planted)
            tau = list(range(n))
            rng.shuffle(tau)
            q = _check_core_against_oracles(n, [(tau[i], tau[j]) for i, j in p.pairs()])
            covers = [(i, j) for i, up in enumerate(q.covers) for j in range(n) if up >> j & 1]
            rng.shuffle(covers)
            assert _check_core_against_oracles(n, covers) == q
            assert from_pairs(n, iter(covers)) == q  # any iterable, read once
            _check_core_against_oracles(n, _top_down(q))
            _check_core_against_oracles(n, _middle_out(q))


def test_chain_and_antichain_carry_their_covers():
    for n in (0, 1, 2, 5, 64):
        for p in (chain(n), antichain(n)):
            assert hasattr(p, "_covers")
            _check_covers(p)


def test_bare_and_induced_posets_find_their_covers_on_first_read():
    for p in SMALL:
        bare = FinitePoset(p.size, p.rows)
        assert not hasattr(bare, "_covers")
        _check_covers(bare)
        assert hasattr(bare, "_covers")
    rng = random.Random(22)
    for n in (9, 33, 128):
        q = from_pairs(n, _middle_out(random_sp_poset(rng, n)))
        bare = FinitePoset(n, q.rows)
        assert _check_covers(bare).covers == q.covers
        elements = rng.sample(range(n), n // 2)
        assert relation(_check_covers(induced(q, elements))) == oracle_induced(q, elements)


def test_act_carries_covers_matching_the_oracle():
    for n in range(5):
        for p in all_posets(n):
            for tau in permutations(range(n)):
                assert relation(_check_covers(act(tau, p))) == oracle_act(tau, p)
    rng = random.Random(23)
    for n in (16, 64, 200):
        p = from_pairs(n, _middle_out(random_sp_poset(rng, n, planted=True)))
        tau = rng.sample(range(n), n)
        assert relation(_check_covers(act(tau, p))) == oracle_act(tau, p)


def test_covers_take_no_part_in_equality_hashing_repr_or_pickling():
    assert FinitePoset.__match_args__ == ("size", "rows")
    q = from_pairs(5, [(3, 1), (1, 4), (3, 0), (2, 0)])
    bare = FinitePoset(q.size, q.rows)
    assert (bare, hash(bare), repr(bare)) == (q, hash(q), repr(q))
    for back in (pickle.loads(pickle.dumps(q)), copy.copy(q), copy.deepcopy(q)):
        assert back == q and hash(back) == hash(q)
        assert not hasattr(back, "_covers")
        assert back.covers == q.covers  # found again on first read
    assert q.__reduce__() == (FinitePoset, (5, q.rows))


def test_from_pairs_reports_the_least_element_on_a_cycle():
    # The search from 0 meets 1 only after closing 2, whose arrow back to 4
    # closes the cycle 4 -> 2 -> 4; 1 lies on 4 -> 3 -> 1 -> 2 -> 4.
    with pytest.raises(CycleError) as err:
        from_pairs(5, [(0, 4), (4, 2), (4, 3), (3, 1), (1, 2), (2, 4)])
    assert err.value.pair == (1, 1)
    rng = random.Random(1979)
    for trial in range(300):
        n = rng.randint(2, 12 if trial % 3 else 40)
        density = rng.choice((0.05, 0.15, 0.3))
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < density]
        closed = oracle_closure(n, pairs)
        on_cycle = [m for m in range(n) if (m, m) in closed]
        if not on_cycle:
            assert relation(from_pairs(n, pairs)) == (n, closed)
            continue
        with pytest.raises(CycleError) as err:
            from_pairs(n, pairs)
        assert err.value.pair == (on_cycle[0], on_cycle[0])


def test_from_pairs_reports_a_cycle_past_a_long_chain_without_closing_it_pairwise():
    n = MAX_ELEMENTS
    pairs = [(i, i + 1) for i in range(n - 1)] + [(n - 1, n - 3)]
    with pytest.raises(CycleError) as err:
        from_pairs(n, pairs)
    assert err.value.pair == (n - 3, n - 3)


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
            assert relation(_check_covers(disjoint_union(p, q))) == oracle_union(p, q)
            assert relation(_check_covers(join(p, q))) == oracle_join(p, q)


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
            composite = _check_covers(substitute(p, list(parts)))
            assert relation(composite) == oracle_substitute(p, parts)


def test_substitute_carries_covers_with_empty_and_relabelled_parts():
    rng = random.Random(1984)
    outers = [p for n in range(3, 6) for p in all_posets(n)]
    for _ in range(300):
        outer = rng.choice(outers)
        parts = []
        for _ in range(outer.size):
            n = rng.choice((0, 0, 1, 2, 5, 9))
            part = random_sp_poset(rng, n, planted=n >= 4) if n else empty()
            parts.append(from_pairs(n, _middle_out(part)) if rng.random() < 0.5 else part)
        composite = _check_covers(substitute(outer, parts))
        assert relation(composite) == oracle_substitute(outer, parts)


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


def test_oracle_find_z_is_the_zigzag_full_embedding_search():
    # The zig-zag is rigid: its one full self-embedding is the identity.
    assert oracle_find_z(ZIGZAG) == (0, 1, 2, 3)
    assert oracle_find_z(chain(4)) is None
    assert oracle_find_z(from_pairs(4, [(0, 1), (0, 2), (2, 3)])) is None  # N-free


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
    # Deeper than the default recursion limit: the walk keeps its own stack.
    assert linear_extensions(chain(1200)) == [tuple(range(1200))]
    # Every order, sorted: backing out runs up to seven positions deep.
    assert linear_extensions(antichain(7)) == list(permutations(range(7)))


def test_linear_extensions_guard(monkeypatch):
    # The cap counts entries held, orders × elements: antichain(3) holds 18.
    monkeypatch.setattr(poset, "EXTENSION_GUARD", 18)
    assert linear_extensions(antichain(3)) == list(permutations(range(3)))
    assert linear_extensions(chain(18)) == [tuple(range(18))]
    monkeypatch.setattr(poset, "EXTENSION_GUARD", 17)
    with pytest.raises(SizeError, match="^linear_extensions is guarded at 17 entries"):
        linear_extensions(antichain(3))
    with pytest.raises(SizeError):
        linear_extensions(chain(18))
    assert linear_extension(antichain(3)) == (0, 1, 2)  # one order, unguarded


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


def test_is_linear_extension_matches_the_pairs_definition():
    cases = 0
    for n in range(6):
        for p in all_posets(n):
            accepted = []
            for order in permutations(range(n)):
                ok = is_linear_extension(p, order)
                assert ok == oracle_is_linear_extension(p, order)
                if ok:
                    accepted.append(order)
                cases += 1
            # linear_extensions lists exactly these, in lexicographic order.
            assert linear_extensions(p) == accepted
    assert cases == 513_098
    for order in ((), (0,), (0, 0, 1), (0, 1, 3), (1, 2, 3)):
        assert not is_linear_extension(chain(3), order)


def test_oracle_chains():
    assert set(oracle_chains(antichain(2))) == {(0,), (1,)}
    assert set(oracle_chains(chain(2))) == {(0,), (1,), (0, 1)}
    # exhaustive subset filter oracle for the zig-zag
    brute = set()
    for size in range(1, 5):
        for seq in permutations(range(4), size):
            if all(ZIGZAG.lt(seq[k], seq[k + 1]) for k in range(size - 1)):
                brute.add(seq)
    assert set(oracle_chains(ZIGZAG)) == brute


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
    with pytest.raises(ValueError, match="^duplicate elements$"):
        induced(ZIGZAG, [0, 0])
    assert induced(ZIGZAG, [0, 3]) == antichain(2)
    assert induced(ZIGZAG, [2, 1, 3]) == from_pairs(3, [(0, 1), (0, 2)])


def test_induced_matches_the_pair_set_oracle():
    for p in SMALL:
        for k in range(p.size + 1):
            for elements in permutations(range(p.size), k):
                sub = _check_covers(induced(p, elements))
                assert relation(sub) == oracle_induced(p, elements)


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


def test_json_element_cap():
    for n in (MAX_ELEMENTS + 1, 100000000000):
        with pytest.raises(SizeError, match=str(MAX_ELEMENTS)):
            from_json_dict({"elements": n, "relations": []})
    # The cap is on input only; constructors build past it.
    assert antichain(MAX_ELEMENTS + 1).size == MAX_ELEMENTS + 1


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
