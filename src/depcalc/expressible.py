"""Recognition and decomposition of expressible posets.

A finite poset is expressible when it can be assembled from singletons using
disjoint unions and joins (equivalently: it is series-parallel / N-free).
The sole obstruction is a full embedding of the four-element zig-zag
a < b > c < d, so ``decompose`` either produces the canonical normal-form
expression of the poset or returns its least obstruction, and ``find_z`` is
that obstruction or None.  Decomposition splits each part, down to single
elements, with one component search: a disjoint union into the components of
its comparability graph, a join into those of the complement.  The zig-zag
scan, ``_least_zigzag``, runs only inside the parts that split neither way,
the prime parts, on the poset's own masks and labels.  ``decompose`` is the
one recognizer, memoized per poset.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Union

from .expression import UNIT, Expression, Otimes, Tri, Var
from .poset import FinitePoset, _mask_elements, comparability_graph, components, from_pairs
from .record import Record

#: The zig-zag pattern: 0 < 1, 2 < 1, 2 < 3 and no other relations.
ZIGZAG = from_pairs(4, [(0, 1), (2, 1), (2, 3)])


#: Entries held by each memo: ``find_z``, ``decompose`` and ``structure_maps._derive``.
MEMO_SIZE = 1 << 18


class Obstruction(Record):
    """Four elements whose induced order is exactly the zig-zag."""

    __slots__ = ("elements",)


# The memo holds nothing ``decompose``'s does not; ``perfbench`` reads its ``cache_info()``.
@lru_cache(maxsize=MEMO_SIZE)
def find_z(p: FinitePoset) -> Obstruction | None:
    """The lexicographically least zig-zag quadruple, or None: ``decompose``'s obstruction.

    A quadruple (a, b, c, d) qualifies when the induced order on those four
    elements is exactly a < b, c < b, c < d.
    """
    result = decompose(p)
    return result if isinstance(result, Obstruction) else None


def _least_zigzag(rows, near, mask: int) -> Obstruction | None:
    """The least zig-zag among the elements of ``mask``, in their own labels.

    ``rows`` are the up-set masks and ``near`` the comparability masks of
    the whole poset; every candidate is kept inside ``mask``.  The scan takes
    ``a`` ascending, ``b`` ascending above ``a``, and ``c`` ascending below
    ``b`` and incomparable to ``a``; the candidates for ``d`` are then one
    mask (above ``c``, comparable to neither ``a`` nor ``b``), whose lowest
    bit is the least ``d``.  The cost is at most O(n³) word operations while
    n fits a machine word (each mask operation is n/64 words beyond that),
    and the scan stops at the first witness.
    """
    for a in _mask_elements(mask):
        # b is in near[a], so "far from a" also rules out d == b.
        far_a = mask & ~(near[a] | 1 << a)
        for b in _mask_elements(rows[a] & mask):
            far_ab = far_a & ~near[b]
            below_b = near[b] & ~rows[b]
            for c in _mask_elements(below_b & far_a):
                ds = rows[c] & far_ab
                if ds:
                    return Obstruction((a, b, c, (ds & -ds).bit_length() - 1))
    return None


def is_expressible(p: FinitePoset) -> bool:
    return not isinstance(decompose(p), Obstruction)


@lru_cache(maxsize=MEMO_SIZE)
def decompose(p: FinitePoset) -> Union[Expression, Obstruction]:
    """Expression in normal form with evaluate(result) = p, or p's least zig-zag.

    Variable indices are the poset's element indices.  Failure is a return
    value, not an exception, so callers branch on the result.

    The obstruction is ``normal_form``'s: the least zig-zag of the prime
    parts, found by ``_least_zigzag`` on each part's mask, with no copy.
    Memoized per poset: ``find_z``, ``is_expressible``, ``depcalc check`` and
    ``derive_structure_map`` all recognize through this one call.
    """
    return normal_form(p.rows, comparability_graph(p), (1 << p.size) - 1)


def normal_form(rows, neighbors, mask: int) -> Union[Expression, Obstruction]:
    """Normal-form expression of the sub-poset on ``mask``, variables named by element.

    ``rows`` are the elements' up-set masks and ``neighbors`` their
    comparability masks.  A part of two or more elements splits into the
    components of its comparability graph or, when connected, of the
    complement (Gallai 1967): its series factors, each wholly below the next,
    so sorted by the up-set size of any one element.  A part that splits
    neither way is prime and holds a zig-zag; if any part is prime, the least
    zig-zag of the prime parts is returned instead of an expression.  That is
    the least zig-zag on ``mask``: the zig-zag is prime (no two or three of
    its elements form an autonomous set), so each zig-zag lies inside one
    prime part, and each part is scanned as a mask of the poset's own
    elements, so its witness is already in their labels.

    The parts are expanded depth first from an explicit stack, so neither
    long chains nor deep alternations of ox and tri cost recursion depth.
    Each product is built as a node, not through the normalizing ``ox`` and
    ``tri``: components come by least element, a component is connected so
    never an ``Otimes``, and a series factor has no series cut so is never a
    ``Tri``.
    """
    done: list = []  # finished sub-expressions, in expansion order
    todo: list = [mask]  # masks to expand and (constructor, arity) to combine
    least = None  # the least zig-zag of the prime parts so far
    apart = None  # the complement of neighbors, built for the first connected part
    while todo:
        item = todo.pop()
        if not isinstance(item, int):
            make, arity = item
            args = done[-arity:]
            del done[-arity:]
            done.append(None if least else make(tuple(args)))
            continue
        if not item & (item - 1):
            done.append(Var(item.bit_length() - 1) if item else UNIT)
            continue
        parts, make = components(neighbors, item), Otimes
        if len(parts) == 1:
            if apart is None:
                every = (1 << len(neighbors)) - 1
                apart = [every ^ near for near in neighbors]
            parts, make = components(apart, item), Tri
            if len(parts) == 1:
                witness = _least_zigzag(rows, neighbors, item)
                assert witness is not None, "prime part without a zig-zag"
                if least is None or witness.elements < least.elements:
                    least = witness
                done.append(None)
                continue
            parts.sort(key=lambda f: rows[f.bit_length() - 1].bit_count(), reverse=True)
        todo.append((make, len(parts)))
        todo.extend(reversed(parts))  # the first part is last, so it pops first
    return least or done[0]

