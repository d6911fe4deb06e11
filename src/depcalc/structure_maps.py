"""Derivation and checking of duoidal structure maps between expressible posets.

A structure map from P to Q exists exactly when the identity on elements is an
inclusion of expressible posets; the derivation produced here is a tree whose
nodes are the generating moves: canonical-form coercion (Equiv), sequential
composition, parallel application under either product, and substitution of
four sub-derivations into the corners of the lax interchanger
(a tri b) ox (c tri d) -> (a ox c) tri (b ox d).

The construction mirrors the recursive factorization through the interchanger:
peel off disjoint-union layers of the target, then join layers of the source,
and in the crossing case route through the three-step interchanger
factorization on the four overlap blocks.  Unit corners are absorbed by the
normal form, which is how the comparitor a ox b -> a tri b shows up as a
degenerate interchanger.

The recursion runs on the row masks of the two posets and reuses the splits
of ``decompose``: ``components`` for the target's layers, ``top_split`` for
the source's, and ``normal_form`` for the expression at each Equiv leaf.
``verify_proof`` deliberately does not: it re-evaluates every node's
endpoints with ``evaluate_labeled``, so a fault in those shared splits cannot
make a wrong derivation check out.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from .errors import DepcalcError, NotExpressible, NotInclusion
from .expression import Expression, evaluate_labeled, format_expression, ox, tri
from .expressible import find_z, normal_form, top_split
from .poset import FinitePoset, comparability_graph, components, is_inclusion


@dataclass(frozen=True)
class Equiv:
    source: Expression
    target: Expression


@dataclass(frozen=True)
class Compose:
    left: "Proof"
    right: "Proof"


@dataclass(frozen=True)
class OtimesPar:
    parts: tuple["Proof", ...]


@dataclass(frozen=True)
class TriPar:
    parts: tuple["Proof", ...]


@dataclass(frozen=True)
class InterchangerSubst:
    """Corners in reading order: (a tri b) ox (c tri d) -> (a ox c) tri (b ox d)."""

    corner_a: "Proof"
    corner_b: "Proof"
    corner_c: "Proof"
    corner_d: "Proof"

    @property
    def corners(self) -> tuple["Proof", ...]:
        return (self.corner_a, self.corner_b, self.corner_c, self.corner_d)


Proof = Union[Equiv, Compose, OtimesPar, TriPar, InterchangerSubst]


def proof_source(p: Proof) -> Expression:
    if isinstance(p, Equiv):
        return p.source
    if isinstance(p, Compose):
        return proof_source(p.left)
    if isinstance(p, OtimesPar):
        return ox(*(proof_source(c) for c in p.parts))
    if isinstance(p, TriPar):
        return tri(*(proof_source(c) for c in p.parts))
    a, b, c, d = (proof_source(c) for c in p.corners)
    return ox(tri(a, b), tri(c, d))


def proof_target(p: Proof) -> Expression:
    if isinstance(p, Equiv):
        return p.target
    if isinstance(p, Compose):
        return proof_target(p.right)
    if isinstance(p, OtimesPar):
        return ox(*(proof_target(c) for c in p.parts))
    if isinstance(p, TriPar):
        return tri(*(proof_target(c) for c in p.parts))
    a, b, c, d = (proof_target(c) for c in p.corners)
    return tri(ox(a, c), ox(b, d))


# ---------------------------------------------------------------------------
# Derivation over row masks (row i is the mask of elements above element i)

Rows = tuple  # of int masks, one per element up to the largest one in play


def _restrict(rows: Rows, mask: int) -> Rows:
    """The sub-poset on ``mask``."""
    return tuple(rows[i] & mask if mask >> i & 1 else 0 for i in range(mask.bit_length()))


def _union(rows: Rows, left: int, right: int) -> Rows:
    """The disjoint union of the sub-posets on two disjoint masks."""
    both = left | right
    return tuple(
        rows[i] & (left if left >> i & 1 else right) if both >> i & 1 else 0
        for i in range(both.bit_length())
    )


def _join(rows: Rows, lower: int, upper: int) -> Rows:
    """The join of the sub-posets on two disjoint masks, ``lower`` below ``upper``."""
    union = _union(rows, lower, upper)
    return tuple(row | upper if lower >> i & 1 else row for i, row in enumerate(union))


@lru_cache(maxsize=None)
def _derive(mask: int, rows_a: Rows, rows_b: Rows) -> Proof:
    # Memoized: sweeps over many poset pairs hit the same subproblems.
    def sub(part: int) -> Proof:
        return _derive(part, _restrict(rows_a, part), _restrict(rows_b, part))

    if rows_a == rows_b:
        e = normal_form(rows_a, comparability_graph(rows_a), mask)
        assert not isinstance(e, int), "inputs must be expressible"
        return Equiv(e, e)

    comps_b = components(comparability_graph(rows_b), mask)
    if len(comps_b) > 1:
        return OtimesPar(tuple(sub(c) for c in comps_b))

    split_a = top_split(rows_a, mask)
    if split_a is not None:
        return TriPar(tuple(sub(half) for half in split_a))

    # Crossing case: the source splits as a disjoint union, the target as a
    # join, and the identity factors through the interchanger on the four
    # overlap blocks.
    comps_a = components(comparability_graph(rows_a), mask)
    split_b = top_split(rows_b, mask)
    assert len(comps_a) > 1 and split_b is not None, "inputs must be expressible"
    a1 = comps_a[0]
    a2 = mask & ~a1
    b1, b2 = split_b
    blocks = (a1 & b1, a1 & b2, a2 & b1, a2 & b2)
    step1 = OtimesPar(
        (
            _derive(a1, _restrict(rows_a, a1), _join(rows_a, blocks[0], blocks[1])),
            _derive(a2, _restrict(rows_a, a2), _join(rows_a, blocks[2], blocks[3])),
        )
    )
    middle = InterchangerSubst(*(sub(block) for block in blocks))
    step3 = TriPar(
        (
            _derive(b1, _union(rows_b, blocks[0], blocks[2]), _restrict(rows_b, b1)),
            _derive(b2, _union(rows_b, blocks[1], blocks[3]), _restrict(rows_b, b2)),
        )
    )
    return Compose(Compose(step1, middle), step3)


def _is_identity(p: Proof) -> bool:
    return isinstance(p, Equiv) and p.source == p.target


@lru_cache(maxsize=None)
def _simplify(p: Proof) -> Proof:
    if isinstance(p, Equiv):
        return p
    if isinstance(p, Compose):
        left, right = _simplify(p.left), _simplify(p.right)
        if _is_identity(left):
            return right
        if _is_identity(right):
            return left
        return Compose(left, right)
    if isinstance(p, (OtimesPar, TriPar)):
        parts = tuple(_simplify(c) for c in p.parts)
        if all(_is_identity(c) for c in parts):
            src = proof_source(type(p)(parts))
            return Equiv(src, src)
        return type(p)(parts)
    corners = tuple(_simplify(c) for c in p.corners)
    return InterchangerSubst(*corners)


def derive_structure_map(p: FinitePoset, q: FinitePoset) -> Proof:
    """A derivation witnessing the inclusion p -> q between expressible posets.

    Raises NotInclusion when the identity is not monotone from p to q, and
    NotExpressible (carrying the zig-zag) when either poset fails recognition.
    """
    if not is_inclusion(p, q):
        raise NotInclusion(p, q)
    for side in (p, q):
        witness = find_z(side)
        if witness is not None:
            raise NotExpressible(witness)
    rows_p, rows_q = (tuple(side._row(i) for i in range(side.size)) for side in (p, q))
    proof = _derive((1 << p.size) - 1, rows_p, rows_q)
    return _simplify(proof)


def verify_proof(p: Proof) -> bool:
    """Check every node invariant; endpoints must evaluate to included posets."""
    try:
        return _verify(p)
    except (DepcalcError, AssertionError):
        return False


@lru_cache(maxsize=None)
def _verify(p: Proof) -> bool:
    rel_s, labels_s = evaluate_labeled(proof_source(p))
    rel_t, labels_t = evaluate_labeled(proof_target(p))
    if labels_s != labels_t or not rel_s <= rel_t:
        return False
    if isinstance(p, Equiv):
        return rel_s == rel_t
    if isinstance(p, Compose):
        return (
            proof_target(p.left) == proof_source(p.right)
            and _verify(p.left)
            and _verify(p.right)
        )
    if isinstance(p, (OtimesPar, TriPar)):
        return all(_verify(c) for c in p.parts)
    if isinstance(p, InterchangerSubst):
        return all(_verify(c) for c in p.corners)
    return False


def format_proof(p: Proof) -> str:
    """Indented derivation-tree text, one node kind per line."""
    lines: list[str] = []

    def emit(node: Proof, depth: int) -> None:
        pad = "  " * depth
        src = format_expression(proof_source(node))
        tgt = format_expression(proof_target(node))
        if isinstance(node, Equiv):
            lines.append(f"{pad}equiv: {src} => {tgt}")
        elif isinstance(node, Compose):
            lines.append(f"{pad}compose: {src} => {tgt}")
            emit(node.left, depth + 1)
            emit(node.right, depth + 1)
        elif isinstance(node, OtimesPar):
            lines.append(f"{pad}otimes-par: {src} => {tgt}")
            for c in node.parts:
                emit(c, depth + 1)
        elif isinstance(node, TriPar):
            lines.append(f"{pad}tri-par: {src} => {tgt}")
            for c in node.parts:
                emit(c, depth + 1)
        else:
            lines.append(f"{pad}interchanger-subst: {src} => {tgt}")
            for c in node.corners:
                emit(c, depth + 1)

    emit(p, 0)
    return "\n".join(lines)


def proof_to_json_dict(p: Proof) -> dict:
    base = {
        "source": format_expression(proof_source(p)),
        "target": format_expression(proof_target(p)),
    }
    if isinstance(p, Equiv):
        return {"kind": "equiv", **base}
    if isinstance(p, Compose):
        return {
            "kind": "compose",
            **base,
            "children": [proof_to_json_dict(p.left), proof_to_json_dict(p.right)],
        }
    if isinstance(p, OtimesPar):
        kind = "otimes-par"
    elif isinstance(p, TriPar):
        kind = "tri-par"
    else:
        return {
            "kind": "interchanger-subst",
            **base,
            "children": [proof_to_json_dict(c) for c in p.corners],
        }
    return {"kind": kind, **base, "children": [proof_to_json_dict(c) for c in p.parts]}
