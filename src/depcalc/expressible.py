"""Recognition and decomposition of expressible posets.

A finite poset is expressible when it can be assembled from singletons using
disjoint unions and joins (equivalently: it is series-parallel / N-free).
The sole obstruction is a full embedding of the four-element zig-zag
a < b > c < d; ``find_z`` searches for one, and ``decompose`` either produces
the canonical normal-form expression of the poset or returns the obstruction
it ran into.  Decomposition splits at the top: the elements lying strictly
below every maximal element form the lower join factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from .expression import UNIT, Expression, Var, ox, tri
from .poset import (
    FinitePoset,
    _mask_elements,
    comparability_graph,
    components,
    from_pairs,
    induced,
)

#: The zig-zag pattern: 0 < 1, 2 < 1, 2 < 3 and no other relations.
ZIGZAG = from_pairs(4, [(0, 1), (2, 1), (2, 3)])


@dataclass(frozen=True)
class Obstruction:
    """Four elements whose induced order is exactly the zig-zag."""

    elements: tuple[int, int, int, int]


@lru_cache(maxsize=1 << 18)
def find_z(p: FinitePoset) -> Obstruction | None:
    """The lexicographically least zig-zag quadruple, or None.

    A quadruple (a, b, c, d) qualifies when the induced order on those four
    elements is exactly a < b, c < b, c < d.

    The search scans per-element masks: for ``a`` ascending, ``b`` ascending
    above ``a``, and ``c`` ascending below ``b`` and incomparable to ``a``,
    the candidates for ``d`` are one mask (above ``c``, comparable to neither
    ``a`` nor ``b``), whose lowest bit is the least ``d``.  The cost is at
    most O(n³) word operations while n fits a machine word (each mask
    operation is n/64 words beyond that), and the scan stops at the first
    witness.
    """
    rows = p.rows
    near = comparability_graph(rows)
    for a, row_a in enumerate(rows):
        # b is in near[a], so "far from a" also rules out d == b.
        far_a = ~(near[a] | 1 << a)
        for b in _mask_elements(row_a):
            far_ab = far_a & ~near[b]
            below_b = near[b] & ~rows[b]
            for c in _mask_elements(below_b & far_a):
                ds = rows[c] & far_ab
                if ds:
                    return Obstruction((a, b, c, (ds & -ds).bit_length() - 1))
    return None


def is_expressible(p: FinitePoset) -> bool:
    return find_z(p) is None


def decompose(p: FinitePoset) -> Union[Expression, Obstruction]:
    """Expression in normal form with evaluate(result) = p, or the obstruction.

    Variable indices are the poset's element indices.  Failure is a return
    value, not an exception, so callers branch on the result.
    """
    result = normal_form(p.rows, comparability_graph(p.rows), (1 << p.size) - 1)
    if isinstance(result, int):
        elems = _mask_elements(result)
        witness = find_z(induced(p, elems))
        assert witness is not None, "split failed but no zig-zag found"
        return Obstruction(tuple(elems[k] for k in witness.elements))
    return result


def normal_form(rows, neighbors, mask: int) -> Union[Expression, int]:
    """Normal-form expression of the sub-poset on ``mask``, variables named by element.

    ``rows`` are the elements' up-set masks and ``neighbors`` their
    comparability masks.  Where some connected part splits neither into
    components nor at its top, that part's mask is returned instead: it
    holds a zig-zag.

    The parts are expanded depth first from an explicit stack, so neither
    long chains nor deep alternations of ox and tri cost recursion depth.
    Each mask peels its join factors off the top, then expands its bottom
    (a variable or the components), then its factors from the lowest up.
    """
    done: list[Expression] = []  # finished sub-expressions, in expansion order
    todo: list = [mask]  # masks to expand and (constructor, arity) to combine
    while todo:
        item = todo.pop()
        if not isinstance(item, int):
            make, arity = item
            args = done[-arity:]
            del done[-arity:]
            done.append(make(*args))
            continue
        uppers = []
        parts = ()
        while item & (item - 1):
            parts = components(neighbors, item)
            if len(parts) > 1:
                break
            split = top_split(rows, item)
            if split is None:
                return item
            item, upper = split
            uppers.append(upper)
        if uppers:
            todo.append((tri, len(uppers) + 1))
            todo.extend(uppers)  # the lowest factor is last, so it pops first
        if len(parts) > 1:
            todo.append((ox, len(parts)))
            todo.extend(reversed(parts))
        else:
            done.append(Var(item.bit_length() - 1) if item else UNIT)
    return done[0]


def top_split(rows, mask: int) -> tuple[int, int] | None:
    """The join split (lower, upper) of the sub-poset on ``mask``, or None.

    The lower part is the set of elements strictly below every maximal
    element; the split exists when it is nonempty and lies below the whole
    upper part.
    """
    elems = _mask_elements(mask)
    maxima = 0
    for i in elems:
        if rows[i] & mask == 0:
            maxima |= 1 << i
    lower = 0
    for i in elems:
        if rows[i] & maxima == maxima:
            lower |= 1 << i
    upper = mask & ~lower
    if lower == 0 or any(rows[i] & upper != upper for i in _mask_elements(lower)):
        return None
    return lower, upper
