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
    """
    n = p.size
    for a in range(n):
        for b in range(n):
            if b == a or not p.lt(a, b):
                continue
            for c in range(n):
                if c in (a, b) or not p.lt(c, b) or p.comparable(a, c):
                    continue
                for d in range(n):
                    if d in (a, b, c) or not p.lt(c, d):
                        continue
                    if p.comparable(a, d) or p.comparable(b, d):
                        continue
                    return Obstruction((a, b, c, d))
    return None


def is_expressible(p: FinitePoset) -> bool:
    return find_z(p) is None


def decompose(p: FinitePoset) -> Union[Expression, Obstruction]:
    """Expression in normal form with evaluate(result) = p, or the obstruction.

    Variable indices are the poset's element indices.  Failure is a return
    value, not an exception, so callers branch on the result.
    """
    rows = [p._row(i) for i in range(p.size)]
    result = normal_form(rows, comparability_graph(rows), (1 << p.size) - 1)
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
    """
    if mask & (mask - 1) == 0:
        return Var(mask.bit_length() - 1) if mask else UNIT
    parts = components(neighbors, mask)
    product = ox
    if len(parts) == 1:
        parts, product = top_split(rows, mask), tri
        if parts is None:
            return mask
    exprs = []
    for part in parts:
        sub = normal_form(rows, neighbors, part)
        if isinstance(sub, int):
            return sub
        exprs.append(sub)
    return product(*exprs)


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
