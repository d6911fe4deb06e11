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

The recursion runs on the two normal-form terms, which are hash-consed, so a
memo key is two identity hashes.  The terms already hold every split: the
target's layers are the children of an ox, the source's top split is a tri's
last child against the rest, and a sub-poset is the term restricted to a
mask (``_restrict``).  Children kept in order from a normal product form a
normal product, so neither the splits nor a restriction that cuts no child
is renormalized.
Each side's term, or its zig-zag, comes from ``decompose``, memoized per
poset, which is also the recognizer.  ``verify_proof`` deliberately does not
use those splits: it evaluates every node's endpoints with ``up_sets``, a
fold over the term that returns one up-set mask per variable (each distinct
term once per call), and tests inclusion variable by variable, so a fault in
the derivation's splits cannot make a wrong derivation check out.  The one
node it accepts without evaluating is an ``Equiv`` whose two sides are the
same term: the identity.  A tree holding anything but proof nodes, par parts
that are not a tuple or an ``Equiv`` side that is not a term fails it.

Proof nodes are records (``depcalc.record``) whose fields are their children,
or an ``Equiv``'s two terms; they are not interned.  Each stores the hash of
its field tuple, computed once as it is built, and compares by class, then
identity, then that hash, then field by field.  Outside its fields a node
keeps its source and target once they are first read, and the checker's
verdict once it is checked, so shared subtrees are neither rebuilt nor
re-checked, and both are freed with the node.  Both are filled children first
from an explicit stack; an ``Equiv``'s endpoints are its fields.

Proof text (``format_proof`` and the JSON tree) walks the proof from an
explicit stack and reads each endpoint's text from the term's ``_text`` slot.
A product's text is composed from its children's the first time any proof
prints it (``_text``), then kept on the term, so it is built once per
interned term and freed with it.  ``_derive`` and ``_restrict`` still
recurse once per level.
"""

from __future__ import annotations

from functools import lru_cache
from operator import and_, attrgetter, invert
from typing import Union

from .errors import DepcalcError, NotExpressible, NotInclusion, PreconditionError
from .expression import (
    UNIT,
    Expression,
    Otimes,
    Tri,
    _Term,
    _low,
    _set,
    ox,
    tri,
    up_sets,
)
from .expressible import MEMO_SIZE, Obstruction, decompose
from .poset import FinitePoset, is_inclusion
from .record import Record

_get_text = attrgetter("_text")


class _Proof(Record):
    """Derivation node with a stored hash, endpoints and verdict; not interned.

    Its fields are its subclass's; the four slots here are not among them.
    """

    __slots__ = ("_hash", "_source", "_target", "_verdict")
    __match_args__ = ()

    def __init__(self, *args, **kwargs):
        # Record.__init__ in one pass with the hash: the field tuple it
        # writes is the one hashed.  An Equiv's fields then fill its endpoints.
        _set(self, "_source", None)
        _set(self, "_target", None)
        _set(self, "_verdict", None)
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._arguments(args, kwargs)
        for write, value in zip(setters, args):
            write(self, value)
        _set(self, "_hash", hash(args))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (
            other._hash == self._hash and self._key(self) == self._key(other)
        )


class Equiv(_Proof):
    """The identity or a canonical-form coercion; its fields are its endpoints."""

    __match_args__ = ("source", "target")
    __slots__ = ()
    source = _Proof._source
    target = _Proof._target


class Compose(_Proof):
    __slots__ = ("left", "right")


class _Par(_Proof):
    __slots__ = ("parts",)


class OtimesPar(_Par):
    __slots__ = ()


class TriPar(_Par):
    __slots__ = ()


class InterchangerSubst(_Proof):
    """Corners in reading order: (a tri b) ox (c tri d) -> (a ox c) tri (b ox d)."""

    __slots__ = ("corner_a", "corner_b", "corner_c", "corner_d")

    @property
    def corners(self) -> tuple["Proof", ...]:
        return self._key(self)


Proof = Union[Equiv, Compose, OtimesPar, TriPar, InterchangerSubst]

_KIND = {
    Equiv: "equiv",
    Compose: "compose",
    OtimesPar: "otimes-par",
    TriPar: "tri-par",
    InterchangerSubst: "interchanger-subst",
}


def _subproofs(p: Proof) -> tuple:
    if type(p) is Equiv:
        return ()
    return p.parts if isinstance(p, _Par) else p._key(p)


def _unfilled(p) -> bool:
    # Until its endpoints are terms: for good, if an Equiv holds anything else.
    return not (isinstance(getattr(p, "_source", None), _Term)
                and isinstance(getattr(p, "_target", None), _Term))


def _fill_endpoints(p: Proof) -> None:
    # Children first, from an explicit stack: a node waits under ``ready``
    # below its unfilled children, each checked before any field is read.
    ready = object()
    stack = [p]
    while stack:
        node = stack.pop()
        if node is ready:
            node = stack.pop()
            if isinstance(node, Compose):
                src, tgt = node.left._source, node.right._target
            elif isinstance(node, _Par):
                make = ox if isinstance(node, OtimesPar) else tri
                src = make(*(q._source for q in node.parts))
                tgt = make(*(q._target for q in node.parts))
            else:
                a, b, c, d = (q._source for q in node.corners)
                src = ox(tri(a, b), tri(c, d))
                a, b, c, d = (q._target for q in node.corners)
                tgt = tri(ox(a, c), ox(b, d))
            _set(node, "_source", src)
            _set(node, "_target", tgt)
            continue
        kind = type(node)
        if kind not in _KIND:
            raise PreconditionError(f"{kind.__name__} is not a proof node")
        if kind is Equiv:  # unfilled only while a side is not a term
            bad = next(e for e in node._key(node) if not isinstance(e, _Term))
            raise PreconditionError(f"{type(bad).__name__} is not an expression")
        subs = _subproofs(node)
        if type(subs) is not tuple:
            raise PreconditionError(f"{kind.__name__} parts are {type(subs).__name__}, not a tuple")
        stack += (node, ready)
        stack.extend([q for q in subs if _unfilled(q)])


def proof_source(p: Proof) -> Expression:
    # Filled on first read: an ill-formed hand-built tree constructs, its readers raise.
    if _unfilled(p):
        _fill_endpoints(p)
    return p._source


def proof_target(p: Proof) -> Expression:
    proof_source(p)
    return p._target


# ---------------------------------------------------------------------------
# Derivation over normal-form terms

def _restrict(e: Expression, mask: int) -> Expression:
    """The normal form of the sub-poset of ``e`` on the variables in ``mask``.

    Only children that straddle the mask are cut; if none is, what is kept is normal.
    """
    outside = ~mask
    if e.mask & outside == 0:
        return e
    if e.mask & mask == 0:
        return UNIT
    kept = []
    straddled = False
    for child in e.children:
        if child.mask & mask:
            if child.mask & outside:
                child = _restrict(child, mask)
                straddled = True
            kept.append(child)
    if len(kept) == 1:
        return kept[0]
    if straddled:
        return (ox if type(e) is Otimes else tri)(*kept)
    return type(e)(tuple(kept))


def _run(kind: type, children: tuple) -> Expression:
    """The ``kind`` product of a run of a normal ``kind`` product's children."""
    return children[0] if len(children) == 1 else kind(children)


def _is_identity(p: Proof) -> bool:
    return type(p) is Equiv and p._source is p._target


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
        src = (ox if kind is OtimesPar else tri)(*[c._source for c in parts])
        return Equiv(src, src)
    return kind(parts)


@lru_cache(maxsize=MEMO_SIZE)
def _derive(a: Expression, b: Expression) -> Proof:
    # Memoized: sweeps over many poset pairs hit the same subproblems.
    if a is b:
        return Equiv(a, a)

    if type(b) is Otimes:
        # a is included in b, so a's components refine b's: a is an ox, and
        # each child of b is covered by children of a.  The least variable of
        # the child not yet covered is the least variable of a child of a, so
        # one step per child of a, in increasing order, finds the restriction
        # of a to each child of b, already normal.  Loops, not generators or
        # calls, so that small terms pay no extra frames.
        by_low = dict(zip(map(_low, a.children), a.children))
        parts = []
        for comp in b.children:
            kept, rest = [], comp.mask
            while rest:
                child = by_low[(rest & -rest).bit_length() - 1]
                kept.append(child)
                rest ^= child.mask
            parts.append(_derive(kept[0] if len(kept) == 1 else Otimes(tuple(kept)), comp))
        return _par(OtimesPar, tuple(parts))

    if type(a) is Tri:
        lower, upper = _run(Tri, a.children[:-1]), a.children[-1]
        return _par(
            TriPar,
            (_derive(lower, _restrict(b, lower.mask)), _derive(upper, _restrict(b, upper.mask))),
        )

    # Crossing case: the source splits as a disjoint union, the target as a
    # join, and the identity factors through the interchanger on the four
    # overlap blocks.
    assert type(a) is Otimes and type(b) is Tri, "inputs must be expressible"
    a1, a2 = a.children[0], _run(Otimes, a.children[1:])
    b1, b2 = _run(Tri, b.children[:-1]), b.children[-1]
    blocks = (a1.mask & b1.mask, a1.mask & b2.mask, a2.mask & b1.mask, a2.mask & b2.mask)
    in_a = list(map(_restrict, (a1, a1, a2, a2), blocks))
    in_b = list(map(_restrict, (b1, b2, b1, b2), blocks))
    step1 = _par(
        OtimesPar,
        (_derive(a1, tri(in_a[0], in_a[1])), _derive(a2, tri(in_a[2], in_a[3]))),
    )
    middle = InterchangerSubst(*map(_derive, in_a, in_b))
    step3 = _par(
        TriPar,
        (_derive(ox(in_b[0], in_b[2]), b1), _derive(ox(in_b[1], in_b[3]), b2)),
    )
    return _compose(_compose(step1, middle), step3)


def derive_structure_map(p: FinitePoset, q: FinitePoset) -> Proof:
    """A derivation witnessing the inclusion p -> q between expressible posets.

    Raises NotInclusion when the identity is not monotone from p to q, and
    NotExpressible (carrying the zig-zag) when either poset fails recognition.
    """
    if not is_inclusion(p, q):
        raise NotInclusion(p, q)
    terms = []
    for side in (p, q):
        term = decompose(side)
        if isinstance(term, Obstruction):
            raise NotExpressible(term)
        terms.append(term)
    return _derive(*terms)


def verify_proof(p: Proof) -> bool:
    """Check every node invariant; endpoints must evaluate to included posets."""
    try:
        return _verify(p, {})
    except DepcalcError:
        return False


def _verify(p: Proof, memo: dict) -> bool:
    # A node's verdict is its own check and its children's verdicts, taken
    # children first from an explicit stack, so depth costs no recursion.  It
    # is kept on the node, so a subtree shared by several derivations is
    # checked once; ``memo`` holds the up-sets of the terms this call has
    # evaluated.
    proof_source(p)  # fills every node's endpoints, children first
    stack = [p]
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            (node,) = node
            _set(node, "_verdict", all(q._verdict for q in _subproofs(node)))
        elif node._verdict is None:
            if _check(node, memo):
                stack.append((node,))
                stack.extend(reversed(_subproofs(node)))
            else:
                _set(node, "_verdict", False)
    return p._verdict


def _check(p: Proof, memo: dict) -> bool:
    """The node's own invariants: included endpoints and, per kind, its seam."""
    source, target = p._source, p._target
    if source.mask != target.mask:
        return False
    if type(p) is Equiv and source is target:
        return True  # the identity on a term, interned, so no evaluation
    up_s, up_t = up_sets(source, memo), up_sets(target, memo)
    if type(p) is Equiv:
        return up_s == up_t
    # Some variable's up-set in the source is not inside its up-set in the target.
    if any(map(and_, up_s.values(), map(invert, map(up_t.__getitem__, up_s)))):
        return False
    return type(p) is not Compose or p.left._target is p.right._source


def _text(e: Expression) -> str:
    """``format_expression`` of ``e``, composed once and kept on the term.

    A product's missing text is filled children first: its subterms without
    a text are listed parents first (terms are trees), then composed in
    reverse, each from its children's.  The text dies with its term.
    """
    if e._text is None:
        todo = [e]
        for node in todo:  # grows as it goes
            todo.extend([c for c in node.children if c._text is None])
        for node in reversed(todo):
            head = "(ox" if type(node) is Otimes else "(tri"
            _set(node, "_text", " ".join([head, *map(_get_text, node.children)]) + ")")
    return e._text


def format_proof(p: Proof) -> str:
    """Indented derivation-tree text, one node kind per line."""
    proof_source(p)  # fills every node's endpoints, children first
    lines: list[str] = []
    stack = [(p, "")]  # preorder, so depth costs no recursion
    while stack:
        node, indent = stack.pop()
        src, tgt = node._source, node._target
        src, tgt = src._text or _text(src), tgt._text or _text(tgt)
        lines.append(f"{indent}{_KIND[type(node)]}: {src} => {tgt}")
        subs = _subproofs(node)
        if subs:
            indent += "  "
            stack.extend([(child, indent) for child in reversed(subs)])
    return "\n".join(lines)


def proof_to_json_dict(p: Proof) -> dict:
    proof_source(p)  # fills every node's endpoints, children first
    root: dict = {}
    stack = [(p, root)]  # each node fills its own dict, so depth costs no recursion
    while stack:
        node, out = stack.pop()
        src, tgt = node._source, node._target
        out["kind"] = _KIND[type(node)]
        out["source"] = src._text or _text(src)
        out["target"] = tgt._text or _text(tgt)
        if type(node) is not Equiv:
            subs = _subproofs(node)
            out["children"] = children = [{} for _ in subs]
            stack.extend(zip(subs, children))
    return root
