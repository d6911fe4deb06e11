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
degenerate interchanger.  The tree comes out simplified as it is built, with
no separate pass: a composite drops an identity side, and a parallel node
whose parts are all identities becomes one identity.

The recursion runs on the row masks of the two posets and reuses the splits
of ``decompose``: ``components`` for the target's layers, ``top_split`` for
the source's, and ``normal_form`` for the expression at each Equiv leaf.
``verify_proof`` deliberately does not: it re-evaluates every node's
endpoints with ``evaluate_labeled``, a fold over the term that returns one
up-set mask per variable, and tests inclusion row by row, so a fault in those
shared splits cannot make a wrong derivation check out.

Proof nodes are immutable ``__slots__`` objects with a hash computed once from
their children's.  Each node keeps its source and target once they are first
read, and the checker's verdict once it is checked, so shared subtrees are
neither rebuilt nor re-checked, and both records are freed with the node.
"""

from __future__ import annotations

from functools import lru_cache
from operator import and_
from typing import Union

from .errors import DepcalcError, NotExpressible, NotInclusion
from .expression import (
    Expression,
    _Node,
    _set,
    evaluate_labeled,
    format_expression,
    ox,
    tri,
)
from .expressible import find_z, normal_form, top_split
from .poset import FinitePoset, comparability_graph, components, is_inclusion


class _Proof(_Node):
    """Derivation node with a stored hash, endpoints and verdict."""

    __slots__ = ("_source", "_target", "_verdict")
    __hash__ = _Node.__hash__
    _tag = 0

    def _init(self, fields: tuple, source=None, target=None) -> None:
        _set(self, "_hash", hash((self._tag, *fields)))
        _set(self, "_source", source)
        _set(self, "_target", target)
        _set(self, "_verdict", None)

    def __eq__(self, other):
        return self is other or (
            type(other) is type(self)
            and other._hash == self._hash
            and other._fields() == self._fields()
        )


class Equiv(_Proof):
    __slots__ = ()
    _tag = 1

    def __init__(self, source: Expression, target: Expression):
        self._init((source, target), source, target)

    @property
    def source(self) -> Expression:
        return self._source

    @property
    def target(self) -> Expression:
        return self._target

    def _fields(self) -> tuple:
        return self._source, self._target

    def __repr__(self):
        return f"Equiv(source={self._source!r}, target={self._target!r})"


class Compose(_Proof):
    __slots__ = ("left", "right")
    _tag = 2

    def __init__(self, left: "Proof", right: "Proof"):
        self._init((left, right))
        _set(self, "left", left)
        _set(self, "right", right)

    def _fields(self) -> tuple:
        return self.left, self.right

    def __repr__(self):
        return f"Compose(left={self.left!r}, right={self.right!r})"


class _Par(_Proof):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple["Proof", ...]):
        parts = tuple(parts)
        self._init((parts,))
        _set(self, "parts", parts)

    def _fields(self) -> tuple:
        return self.parts

    def __repr__(self):
        return f"{type(self).__name__}(parts={self.parts!r})"


class OtimesPar(_Par):
    __slots__ = ()
    _tag = 3


class TriPar(_Par):
    __slots__ = ()
    _tag = 4


class InterchangerSubst(_Proof):
    """Corners in reading order: (a tri b) ox (c tri d) -> (a ox c) tri (b ox d)."""

    __slots__ = ("corner_a", "corner_b", "corner_c", "corner_d")
    _tag = 5

    def __init__(self, corner_a: "Proof", corner_b: "Proof", corner_c: "Proof",
                 corner_d: "Proof"):
        self._init((corner_a, corner_b, corner_c, corner_d))
        _set(self, "corner_a", corner_a)
        _set(self, "corner_b", corner_b)
        _set(self, "corner_c", corner_c)
        _set(self, "corner_d", corner_d)

    @property
    def corners(self) -> tuple["Proof", ...]:
        return (self.corner_a, self.corner_b, self.corner_c, self.corner_d)

    def _fields(self) -> tuple:
        return self.corners

    def __repr__(self):
        a, b, c, d = (repr(x) for x in self.corners)
        return f"InterchangerSubst(corner_a={a}, corner_b={b}, corner_c={c}, corner_d={d})"


Proof = Union[Equiv, Compose, OtimesPar, TriPar, InterchangerSubst]

_KIND = {
    Equiv: "equiv",
    Compose: "compose",
    OtimesPar: "otimes-par",
    TriPar: "tri-par",
    InterchangerSubst: "interchanger-subst",
}


def _subproofs(p: Proof) -> tuple:
    return () if isinstance(p, Equiv) else p._fields()


def _fill_endpoints(p: Proof) -> None:
    if isinstance(p, Compose):
        src, tgt = proof_source(p.left), proof_target(p.right)
    elif isinstance(p, _Par):
        make = ox if isinstance(p, OtimesPar) else tri
        src, tgt = make(*map(proof_source, p.parts)), make(*map(proof_target, p.parts))
    else:
        a, b, c, d = map(proof_source, p.corners)
        src = ox(tri(a, b), tri(c, d))
        a, b, c, d = map(proof_target, p.corners)
        tgt = tri(ox(a, c), ox(b, d))
    _set(p, "_source", src)
    _set(p, "_target", tgt)


def proof_source(p: Proof) -> Expression:
    # Filled on first read, so an ill-formed hand-built node still constructs.
    if p._source is None:
        _fill_endpoints(p)
    return p._source


def proof_target(p: Proof) -> Expression:
    if p._target is None:
        _fill_endpoints(p)
    return p._target


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


def _is_identity(p: Proof) -> bool:
    return isinstance(p, Equiv) and p.source == p.target


def _compose(left: Proof, right: Proof) -> Proof:
    """Sequential composite, dropping an identity side."""
    if _is_identity(left):
        return right
    if _is_identity(right):
        return left
    return Compose(left, right)


def _par(kind: type, parts: tuple) -> Proof:
    """Parallel node; parts that are all identities make one identity."""
    if all(map(_is_identity, parts)):
        src = (ox if kind is OtimesPar else tri)(*(c.source for c in parts))
        return Equiv(src, src)
    return kind(parts)


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
        return _par(OtimesPar, tuple(sub(c) for c in comps_b))

    split_a = top_split(rows_a, mask)
    if split_a is not None:
        return _par(TriPar, tuple(sub(half) for half in split_a))

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
    step1 = _par(
        OtimesPar,
        (
            _derive(a1, _restrict(rows_a, a1), _join(rows_a, blocks[0], blocks[1])),
            _derive(a2, _restrict(rows_a, a2), _join(rows_a, blocks[2], blocks[3])),
        ),
    )
    middle = InterchangerSubst(*(sub(block) for block in blocks))
    step3 = _par(
        TriPar,
        (
            _derive(b1, _union(rows_b, blocks[0], blocks[2]), _restrict(rows_b, b1)),
            _derive(b2, _union(rows_b, blocks[1], blocks[3]), _restrict(rows_b, b2)),
        ),
    )
    return _compose(_compose(step1, middle), step3)


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
    return _derive((1 << p.size) - 1, p.rows, q.rows)


def verify_proof(p: Proof) -> bool:
    """Check every node invariant; endpoints must evaluate to included posets."""
    try:
        return _verify(p)
    except (DepcalcError, AssertionError):
        return False


def _verify(p: Proof) -> bool:
    # The verdict is kept on the node, so a subtree shared by several
    # derivations is checked once.
    verdict = p._verdict
    if verdict is None:
        verdict = _check(p)
        _set(p, "_verdict", verdict)
    return verdict


def _check(p: Proof) -> bool:
    rows_s, labels_s = evaluate_labeled(proof_source(p))
    rows_t, labels_t = evaluate_labeled(proof_target(p))
    if labels_s != labels_t or rows_s != tuple(map(and_, rows_s, rows_t)):
        return False
    if isinstance(p, Equiv):
        return rows_s == rows_t
    if isinstance(p, Compose) and proof_target(p.left) != proof_source(p.right):
        return False
    return all(map(_verify, _subproofs(p)))


def _term_text():
    """format_expression memoized over one call: each distinct term once."""
    memo: dict = {}

    def text(e: Expression) -> str:
        s = memo.get(e)
        if s is None:
            s = memo[e] = format_expression(e)
        return s

    return text


def format_proof(p: Proof) -> str:
    """Indented derivation-tree text, one node kind per line."""
    text = _term_text()
    lines: list[str] = []

    def emit(node: Proof, depth: int) -> None:
        src = text(proof_source(node))
        tgt = text(proof_target(node))
        lines.append(f"{'  ' * depth}{_KIND[type(node)]}: {src} => {tgt}")
        for child in _subproofs(node):
            emit(child, depth + 1)

    emit(p, 0)
    return "\n".join(lines)


def proof_to_json_dict(p: Proof) -> dict:
    text = _term_text()

    def node(q: Proof) -> dict:
        out = {
            "kind": _KIND[type(q)],
            "source": text(proof_source(q)),
            "target": text(proof_target(q)),
        }
        if not isinstance(q, Equiv):
            out["children"] = [node(c) for c in _subproofs(q)]
        return out

    return node(p)
