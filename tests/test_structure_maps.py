import hashlib
import json
import random

import pytest

from depcalc import (
    Compose,
    Equiv,
    InterchangerSubst,
    NotExpressible,
    NotInclusion,
    OtimesPar,
    TriPar,
    ZIGZAG,
    antichain,
    chain,
    derive_structure_map,
    enumerate_posets,
    evaluate,
    format_proof,
    from_pairs,
    is_inclusion,
    parse_expression,
    verify_proof,
)
from depcalc.structure_maps import proof_source, proof_target, proof_to_json_dict

from conftest import buildable_posets, packed

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
