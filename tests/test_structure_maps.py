import gc
import hashlib
import inspect
import json
import random
import sys
import tracemalloc
from collections import Counter
from itertools import combinations, permutations

import pytest

from depcalc import (
    Compose,
    Equiv,
    InterchangerSubst,
    NotExpressible,
    NotInclusion,
    OtimesPar,
    PreconditionError,
    TriPar,
    ZIGZAG,
    Obstruction,
    antichain,
    chain,
    decompose,
    derive_structure_map,
    enumerate_posets,
    evaluate,
    format_expression,
    format_proof,
    from_pairs,
    is_inclusion,
    parse_expression,
    verify_proof,
)
from depcalc import expressible, expression, structure_maps
from depcalc.expression import UNIT, Otimes, Tri, Var, up_sets
from depcalc.structure_maps import proof_source, proof_target, proof_to_json_dict

from conftest import (
    all_posets,
    buildable_posets,
    mirror,
    opposite,
    oracle_evaluate,
    oracle_verify_proof,
    packed,
    random_sp_poset,
    relabel,
)

INTER_DOMAIN = evaluate(parse_expression("(ox (tri x0 x1) (tri x2 x3))"))
INTER_CODOMAIN = evaluate(parse_expression("(tri (ox x0 x2) (ox x1 x3))"))


def test_interchanger_inclusion_is_a_bare_interchanger():
    proof = derive_structure_map(INTER_DOMAIN, INTER_CODOMAIN)
    assert isinstance(proof, InterchangerSubst)
    assert all(isinstance(c, Equiv) for c in proof.corners)
    assert proof_source(proof) == parse_expression("(ox (tri x0 x1) (tri x2 x3))")
    assert proof_target(proof) == parse_expression("(tri (ox x0 x2) (ox x1 x3))")
    assert verify_proof(proof)


def test_identity_is_equiv():
    proof = derive_structure_map(INTER_DOMAIN, INTER_DOMAIN)
    assert isinstance(proof, Equiv)
    assert proof.source == proof.target
    assert verify_proof(proof)


def test_comparitor_derivation():
    # two incomparable elements into a chain: the unit-cornered interchanger
    proof = derive_structure_map(antichain(2), chain(2))
    assert isinstance(proof, InterchangerSubst)
    assert proof_source(proof) == parse_expression("(ox x0 x1)")
    assert proof_target(proof) == parse_expression("(tri x0 x1)")
    corner_exprs = [proof_source(c) for c in proof.corners]
    assert corner_exprs == [
        parse_expression("x0"),
        parse_expression("e"),
        parse_expression("e"),
        parse_expression("x1"),
    ]
    assert verify_proof(proof)


def test_not_inclusion_raises():
    with pytest.raises(NotInclusion):
        derive_structure_map(chain(2), antichain(2))
    with pytest.raises(NotInclusion):
        derive_structure_map(chain(2), chain(3))


def test_not_expressible_raises():
    full = evaluate(parse_expression("(tri (ox x0 x2) (ox x1 x3))"))
    with pytest.raises(NotExpressible) as info:
        derive_structure_map(ZIGZAG, full)
    assert info.value.obstruction.elements == (0, 1, 2, 3)


def test_hand_built_interchanger_verifies():
    proof = InterchangerSubst(
        Equiv(parse_expression("x0"), parse_expression("x0")),
        Equiv(parse_expression("x1"), parse_expression("x1")),
        Equiv(parse_expression("x2"), parse_expression("x2")),
        Equiv(parse_expression("x3"), parse_expression("x3")),
    )
    assert proof_source(proof) == parse_expression("(ox (tri x0 x1) (tri x2 x3))")
    assert verify_proof(proof)


def test_mismatched_compose_middle_rejected():
    good = Equiv(parse_expression("(ox x0 x1)"), parse_expression("(ox x0 x1)"))
    other = Equiv(parse_expression("(tri x0 x1)"), parse_expression("(tri x0 x1)"))
    assert not verify_proof(Compose(good, other))


def test_equiv_between_unequal_posets_rejected():
    bad = Equiv(parse_expression("(ox x0 x1)"), parse_expression("(tri x0 x1)"))
    assert not verify_proof(bad)


def test_endpoints_over_different_variables_rejected():
    assert verify_proof(Equiv(Var(0), Var(1))) is False
    assert verify_proof(Compose(Equiv(Var(0), Var(0)), Equiv(Var(0), Var(1)))) is False


def test_par_nodes_with_overlapping_variables_rejected():
    dup = OtimesPar(
        (
            Equiv(parse_expression("x0"), parse_expression("x0")),
            Equiv(parse_expression("x0"), parse_expression("x0")),
        )
    )
    assert not verify_proof(dup)
    dup2 = TriPar(dup.parts)
    assert not verify_proof(dup2)


def _corners(base):
    return [Equiv(Var(base + k), Var(base + k)) for k in range(4)]


def test_equal_proofs_built_apart_are_equal_values():
    first, second = InterchangerSubst(*_corners(0)), InterchangerSubst(*_corners(0))
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first != InterchangerSubst(*_corners(1))
    assert Compose(first, first) == Compose(second, second)
    assert OtimesPar(first.corners) == OtimesPar(second.corners) != TriPar(first.corners)
    assert derive_structure_map(antichain(3), chain(3)) == derive_structure_map(
        from_pairs(3, []), from_pairs(3, [(0, 1), (1, 2)])
    )


def test_proof_nodes_are_immutable():
    leaf = Equiv(Var(0), Var(0))
    for node in (leaf, Compose(leaf, leaf), OtimesPar((leaf,)), TriPar((leaf,)),
                 InterchangerSubst(leaf, leaf, leaf, leaf)):
        with pytest.raises(AttributeError):
            node.extra = 1
        with pytest.raises(AttributeError):
            node._verdict = True
    with pytest.raises(AttributeError):
        leaf.source = Var(1)
    with pytest.raises(AttributeError):
        Compose(leaf, leaf).left = leaf


def test_proof_attributes_the_bench_oracle_reads():
    proof = derive_structure_map(antichain(3), chain(3))
    seen = {}
    stack = [proof]
    while stack:
        node = stack.pop()
        kind = type(node).__name__
        seen[kind] = node
        if kind == "Compose":
            stack += [node.left, node.right]
        elif kind == "InterchangerSubst":
            stack += [node.corner_a, node.corner_b, node.corner_c, node.corner_d]
            assert node.corners == (node.corner_a, node.corner_b, node.corner_c, node.corner_d)
        elif kind != "Equiv":
            stack += list(node.parts)
    assert {"Equiv", "Compose", "InterchangerSubst"} <= set(seen)
    assert seen["Equiv"].source == seen["Equiv"].target


def test_structure_maps_keeps_two_memo_caches():
    # The derivation's two: _derive's own and the per-poset normal form, decompose.
    assert not hasattr(structure_maps, "_simplify")
    assert not hasattr(structure_maps, "_normal_form")
    assert not hasattr(structure_maps._verify, "cache_info")
    assert not hasattr(up_sets, "cache_info")
    for cache in (structure_maps._derive, expressible.decompose):
        assert 0 < cache.cache_info().maxsize < float("inf")


def test_cleared_caches_free_their_terms():
    def clear():
        structure_maps._derive.cache_clear()
        expressible.decompose.cache_clear()
        gc.collect()

    clear()
    start = len(expression._TABLE)
    for n in range(2, 5):
        for p in buildable_posets(n):
            proof = derive_structure_map(antichain(n), p)
            assert verify_proof(proof)
    del proof
    gc.collect()
    assert len(expression._TABLE) > start
    clear()
    assert len(expression._TABLE) == start


def test_endpoints_and_verdict_stay_on_the_node():
    proof = derive_structure_map(INTER_DOMAIN, INTER_CODOMAIN)
    assert proof_source(proof) is proof_source(proof)
    assert proof_target(proof) is proof_target(proof)
    assert verify_proof(proof) and verify_proof(proof)


def _distinct_proof(k):
    a, b, c, d = _corners(4 * k)
    after = TriPar((OtimesPar((a, c)), OtimesPar((b, d))))
    return Compose(InterchangerSubst(a, b, c, d), after)


def _assert_holds_no_memory(check):
    """Run ``check(k)`` for k = 1..2000 and assert that nothing it made outlives it."""
    # The intern table's own storage is left out: a resize while tracing
    # counts its new array but not the old one it frees.  The table's
    # entries are counted instead.
    lines, first = inspect.getsourcelines(expression._intern)
    table = range(first, first + len(lines))

    def traced_bytes():
        return sum(
            t.size
            for t in tracemalloc.take_snapshot().traces
            if not (t.traceback[0].filename == expression.__file__
                    and t.traceback[0].lineno in table)
        )

    check(0)
    gc.collect()
    entries = len(expression._TABLE)
    tracemalloc.start()
    try:
        start = traced_bytes()
        for k in range(1, 2001):
            check(k)
        gc.collect()
        grown = traced_bytes() - start
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024
    assert len(expression._TABLE) == entries


def test_verifying_distinct_proofs_holds_no_memory():
    def check(k):
        assert verify_proof(_distinct_proof(k))

    _assert_holds_no_memory(check)


def test_formatting_distinct_proofs_holds_no_memory():
    # Each proof's endpoint texts are composed and kept on its terms, and go
    # with them.
    def check(k):
        proof = _distinct_proof(k)
        assert format_proof(proof).count("\n") == 12
        assert json.dumps(proof_to_json_dict(proof)).count('"kind"') == 13

    _assert_holds_no_memory(check)


def _subterms(term):
    stack = [term]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(getattr(node, "children", ()))


def test_term_text_slot_is_format_expression():
    terms = [term for n in range(6) for p in all_posets(n)
             if not isinstance(term := decompose(p), Obstruction)]
    rng = random.Random(18)
    terms += [decompose(random_sp_poset(rng, n)) for n in (8, 16, 32, 64, 128, 256) for _ in range(4)]
    # Hand-built terms that are not normal: unit children, empty products and
    # a child held twice.
    x0, x1, x2 = Var(0), Var(1), Var(2)
    terms += [UNIT, Otimes(()), Tri((UNIT,)), Tri((UNIT, x0)),
              Otimes((x1, Tri((UNIT, x2)), UNIT)), Tri((Otimes((x0, UNIT)), Otimes((UNIT,)))),
              Tri((Otimes(()), Otimes(())))]
    for term in terms:
        text = format_expression(term)
        assert term._text in (None, text)
        assert structure_maps._text(term) == text
        for sub in _subterms(term):
            assert sub._text == format_expression(sub)


def test_proof_deeper_than_the_recursion_limit_formats():
    depth = sys.getrecursionlimit() + 100
    leaf = Equiv(Var(0), Var(0))
    proof = leaf
    for _ in range(depth):
        proof = Compose(proof, leaf)
    nodes = 2 * depth + 1
    lines = format_proof(proof).split("\n")
    assert len(lines) == nodes
    assert lines[0] == "compose: x0 => x0"
    assert lines[depth] == "  " * depth + "equiv: x0 => x0"
    count, stack = 0, [proof_to_json_dict(proof)]
    while stack:
        node = stack.pop()
        count += 1
        assert (node["source"], node["target"]) == ("x0", "x0")
        stack.extend(node.get("children", ()))
    assert count == nodes


def test_completeness_small():
    # For every expressible pair on up to four elements, derivation succeeds
    # exactly on inclusions and every derived proof checks out.
    for n in range(5):
        expressible = sorted(buildable_posets(n), key=packed)
        for p in expressible:
            for q in expressible:
                included = is_inclusion(p, q)
                if included:
                    proof = derive_structure_map(p, q)
                    assert verify_proof(proof)
                    assert evaluate(proof_source(proof)) == p
                    assert evaluate(proof_target(proof)) == q
                else:
                    with pytest.raises(NotInclusion):
                        derive_structure_map(p, q)


def test_wide_ox_derivation_verifies_at_2048_elements():
    # Only 5 < 9, derived to 5 < 9 < 11: each side is an ox of about 2,000
    # children, which the derivation must group in one pass.
    n = 2048
    p, q = from_pairs(n, [(5, 9)]), from_pairs(n, [(5, 9), (9, 11)])
    proof = derive_structure_map(p, q)
    assert verify_proof(proof)
    assert evaluate(proof_source(proof)) == p
    assert evaluate(proof_target(proof)) == q


def test_format_proof_shape():
    proof = derive_structure_map(antichain(3), chain(3))
    text = format_proof(proof)
    assert "=>" in text
    kinds = {line.strip().split(":")[0] for line in text.splitlines()}
    assert kinds <= {"equiv", "compose", "otimes-par", "tri-par", "interchanger-subst"}
    assert verify_proof(proof)


def _random_expressible(rng, n):
    """A random binary build tree of disjoint unions and joins over shuffled labels."""
    labels = list(range(n))
    rng.shuffle(labels)

    def build(block):
        if len(block) == 1:
            return set()
        k = rng.randint(1, len(block) - 1)
        lower, upper = block[:k], block[k:]
        rel = build(lower) | build(upper)
        if rng.random() < 0.5:
            rel |= {(x, y) for x in lower for y in upper}
        return rel

    return from_pairs(n, build(labels))


def _golden_corpus():
    """Every pair of posets with n <= 4, plus seeded n = 5/6 pairs.

    Half of the seeded pairs intersect the target with a second random
    expressible poset, so they are inclusions (crossing cases included) whose
    source may or may not be expressible.
    """
    for n in range(5):
        posets = list(enumerate_posets(n))
        for p in posets:
            for q in posets:
                yield p, q
    rng = random.Random(20221004)
    for n in (5, 6):
        for k in range(300):
            q = _random_expressible(rng, n)
            other = _random_expressible(rng, n)
            p = from_pairs(n, set(q.pairs()) & set(other.pairs())) if k % 2 else other
            yield p, q


#: sha256 over format_proof, sorted-key proof JSON and error text on the corpus.
GOLDEN_DIGEST = "a517b864de4f0a556a0bbb79dd42b35c04893b3fcfeca0bb73d1e635505870c6"


def test_golden_corpus_output_is_unchanged():
    digest = hashlib.sha256()
    crossings = 0
    for p, q in _golden_corpus():
        try:
            proof = derive_structure_map(p, q)
        except (NotInclusion, NotExpressible) as err:
            digest.update(f"{type(err).__name__}: {err}\n".encode())
            continue
        text = format_proof(proof)
        crossings += "interchanger-subst" in text
        digest.update(text.encode() + b"\n")
        digest.update(json.dumps(proof_to_json_dict(proof), sort_keys=True).encode() + b"\n")
    assert crossings > 1000
    assert digest.hexdigest() == GOLDEN_DIGEST


def _subproofs(node):
    if isinstance(node, Equiv):
        return ()
    if isinstance(node, Compose):
        return (node.left, node.right)
    return node.corners if isinstance(node, InterchangerSubst) else node.parts


def _rebuild(node, children):
    if isinstance(node, (Compose, InterchangerSubst)):
        return type(node)(*children)
    return type(node)(tuple(children))


def _one_relation_away(term):
    """Normal forms on the term's variables whose poset has one relation more or less."""
    order, rel = oracle_evaluate(term)
    labels = sorted(order)
    at = {v: k for k, v in enumerate(labels)}
    pairs = {(at[x], at[y]) for x, y in rel}
    n = len(labels)
    for x, y in permutations(range(n), 2):
        changed = pairs ^ {(x, y)}
        if (y, x) in changed or set(from_pairs(n, changed).pairs()) != changed:
            continue  # not a strict order as it stands
        other = decompose(from_pairs(n, changed))
        if not isinstance(other, Obstruction):
            yield relabel(other, labels.__getitem__)


def _mutants(proof):
    """(mutation, mutated proof) for every node of the proof where one applies."""
    def here(node):
        if isinstance(node, Compose):
            yield "swap-compose", Compose(node.right, node.left)
        elif isinstance(node, InterchangerSubst):
            for i, j in combinations(range(4), 2):
                corners = list(node.corners)
                corners[i], corners[j] = corners[j], corners[i]
                yield "swap-corners", InterchangerSubst(*corners)
        elif isinstance(node, (OtimesPar, TriPar)):
            yield "repeat-part", type(node)(node.parts + node.parts[:1])
        elif node.source is node.target:
            for target in _one_relation_away(node.source):
                yield "identity-target", Equiv(node.source, target)

    def walk(node):
        yield from here(node)
        kids = _subproofs(node)
        for k, kid in enumerate(kids):
            for kind, mutant in walk(kid):
                yield kind, _rebuild(node, kids[:k] + (mutant,) + kids[k + 1:])

    return walk(proof)


def test_verify_proof_agrees_with_the_proof_oracle():
    # On golden-corpus proofs and on mutations of them.  A mutated identity
    # leaf relates two different terms, so the checker must evaluate it.
    seen, rejected = Counter(), Counter()
    for k, (p, q) in enumerate(_golden_corpus()):
        if p.size == 4 and k % 25 or p.size > 4 and k % 3:
            continue
        try:
            proof = derive_structure_map(p, q)
        except (NotInclusion, NotExpressible):
            continue
        assert verify_proof(proof) and oracle_verify_proof(proof)
        for kind, mutant in _mutants(proof):
            verdict = verify_proof(mutant)
            assert verdict == oracle_verify_proof(mutant), (kind, mutant)
            seen[kind] += 1
            rejected[kind] += not verdict
    assert set(seen) == {"swap-compose", "swap-corners", "repeat-part", "identity-target"}
    assert all(rejected.values())
    assert rejected["identity-target"] == seen["identity-target"]
    assert rejected["repeat-part"] == seen["repeat-part"]


def test_a_tree_holding_something_else_is_no_proof():
    # A child that is not a proof node, par parts that are not a tuple and an
    # Equiv side that is not a term fail verification; the readers of a proof
    # name what is wrong in one line.
    for tree, message in (
        (TriPar((Var(0),)), "Var is not a proof node"),
        (Compose(Var(0), Var(1)), "Var is not a proof node"),
        (Var(0), "Var is not a proof node"),
        (Equiv(1, 2), "int is not an expression"),
        (TriPar(Var(0)), "TriPar parts are Var, not a tuple"),
        (Equiv(None, None), "NoneType is not an expression"),
        (Equiv(Var(0), "x0"), "str is not an expression"),
        (Compose(Equiv(Var(0), Var(0)), Equiv(Var(0), 1)), "int is not an expression"),
        (Compose((Var(0),), Equiv(Var(0), Var(0))), "tuple is not a proof node"),
    ):
        assert verify_proof(tree) is False
        for read in (proof_source, proof_target, format_proof, proof_to_json_dict):
            with pytest.raises(PreconditionError, match=f"^{message}$"):
                read(tree)


def test_mirrored_proofs_verify_between_the_opposites():
    # Duality does not preserve the crossing case's choice of children, so
    # the mirrored proof need not be the derived one; it must still check out.
    pairs = 0
    for n in range(5):
        posets = [p for p in all_posets(n) if p in buildable_posets(n)]
        for p in posets:
            for q in posets:
                if is_inclusion(p, q):
                    proof = mirror(derive_structure_map(p, q))
                    assert verify_proof(proof)
                    assert proof_source(proof) is decompose(opposite(p))
                    assert proof_target(proof) is decompose(opposite(q))
                    pairs += 1
    assert pairs == 2803
