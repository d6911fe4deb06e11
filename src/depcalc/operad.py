"""The composition operad of finite posets and the expressible-cover machinery.

Composition is lexicographic substitution, the unit is the singleton, and the
symmetric group acts by relabeling.  Beyond the operad structure itself, this
module realizes any poset as the intersection of expressible posets that
contain it: one linear extension plus, per incomparable pair, an expressible
witness in which the pair stays incomparable.  The witness family uses a
pair-adapted linear extension placing the two elements adjacently; a single
shared extension does not always yield containing witnesses (the blocks can
cut across relations among the in-between elements), so each pair gets its
own.

``terminal_cover_factorization`` inverts composition against an expressible
upper bound: restricting the bound to the blocks and relating two blocks only
when every cross pair is related gives the componentwise-largest composite
under the bound.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ArityError, PreconditionError, SizeMismatch
from .expressible import is_expressible
from .poset import (
    FinitePoset,
    _pack,
    from_pairs,
    induced,
    is_inclusion,
    is_linear_extension,
    linear_extension,
    singleton,
    substitute,
)


def mu(p: FinitePoset, parts: Sequence[FinitePoset]) -> FinitePoset:
    """Operadic composition: lexicographic substitution of parts into p."""
    return substitute(p, list(parts))


def unit() -> FinitePoset:
    """The unique poset structure on one element."""
    return singleton()


def act(tau: Sequence[int], p: FinitePoset) -> FinitePoset:
    """Relabel p along the permutation tau (element i becomes tau[i])."""
    if len(tau) != p.size or sorted(tau) != list(range(p.size)):
        raise ArityError(f"not a permutation of {p.size} elements: {tau!r}")
    return _pack(p.size, [(tau[i], tau[j]) for i, j in p.pairs()])


def intersect(posets: Sequence[FinitePoset]) -> FinitePoset:
    """Pairwise intersection of the order relations (a meet in the inclusion order)."""
    if not posets:
        raise SizeMismatch("intersect requires at least one poset")
    first = posets[0]
    bits = first.bits
    for other in posets[1:]:
        if other.size != first.size:
            raise SizeMismatch(f"sizes differ: {first.size} vs {other.size}")
        bits &= other.bits
    return FinitePoset(first.size, bits)


def incomparability_witness(
    p: FinitePoset, extension: Sequence[int], i: int, j: int
) -> FinitePoset:
    """An expressible poset containing p in which i and j stay incomparable.

    Built from the extension as  prefix-chain tri (Q_i ox Q_j') tri suffix,
    where Q_i holds i plus the in-between elements above i in p and Q_j'
    holds j plus the rest, each chained in extension order.  Raises
    PreconditionError when the inputs are invalid or when the extension does
    not separate the pair (some relation of p would cross the two blocks, so
    the construction cannot contain p).
    """
    order = tuple(extension)
    if not is_linear_extension(p, order):
        raise PreconditionError(f"{order!r} is not a linear extension of the poset")
    if p.comparable(i, j):
        raise PreconditionError(f"elements {i} and {j} are comparable")
    pos = {e: k for k, e in enumerate(order)}
    if pos[i] >= pos[j]:
        raise PreconditionError(f"extension must list {i} before {j}")
    prefix = order[: pos[i]]
    between = order[pos[i] + 1 : pos[j]]
    suffix = order[pos[j] + 1 :]
    block_i = (i,) + tuple(k for k in between if p.lt(i, k))
    block_j = tuple(k for k in between if not p.lt(i, k)) + (j,)
    in_i = set(block_i)
    for x, y in p.pairs():
        if (x in in_i) != (y in in_i) and {x, y} <= set(block_i) | set(block_j):
            raise PreconditionError(
                f"extension does not separate the pair: relation ({x}, {y}) "
                "crosses the two incomparability blocks"
            )
    pairs: list[tuple[int, int]] = []
    for chain_part in (prefix, block_i, block_j, suffix):
        pairs += [
            (chain_part[a], chain_part[b])
            for a in range(len(chain_part))
            for b in range(a + 1, len(chain_part))
        ]
    middle = block_i + block_j
    pairs += [(x, y) for x in prefix for y in middle + suffix]
    pairs += [(x, y) for x in middle for y in suffix]
    return from_pairs(p.size, pairs)


def _separating_extension(p: FinitePoset, i: int, j: int) -> tuple[int, ...]:
    """A linear extension of p in which i immediately precedes j."""
    lower = [x for x in range(p.size) if p.lt(x, i) or p.lt(x, j)]
    rest = [x for x in range(p.size) if x not in (i, j) and x not in set(lower)]
    head = linear_extension(induced(p, lower))
    tail = linear_extension(induced(p, rest))
    return tuple(lower[k] for k in head) + (i, j) + tuple(rest[k] for k in tail)


def expressible_covers(p: FinitePoset) -> list[FinitePoset]:
    """Expressible posets containing p whose relation-intersection is exactly p.

    One linear extension of p, plus one incomparability witness per unordered
    incomparable pair, each built over a pair-adapted extension.
    """
    covers: list[FinitePoset] = []
    if p.size:
        base = linear_extension(p)
        chain_pairs = [
            (base[a], base[b]) for a in range(p.size) for b in range(a + 1, p.size)
        ]
        covers.append(_pack(p.size, chain_pairs))
    else:
        covers.append(p)
    for i in range(p.size):
        for j in range(i + 1, p.size):
            if p.comparable(i, j):
                continue
            ext = _separating_extension(p, i, j)
            covers.append(incomparability_witness(p, ext, i, j))
    unique: list[FinitePoset] = []
    for cover in covers:
        if cover not in unique:
            unique.append(cover)
    return unique


def terminal_cover_factorization(
    r: FinitePoset, p: FinitePoset, parts: Sequence[FinitePoset]
) -> tuple[FinitePoset, list[FinitePoset]]:
    """Largest composite refinement of an expressible bound r over mu(p, parts).

    Returns (r_outer, r_parts) with r_parts the block restrictions of r and
    r_outer relating block a to block b iff every cross pair is related in r.
    The result is terminal: any (q, q_parts) whose composite sits between
    mu(p, parts) and r satisfies q included in r_outer and q_parts_i included
    in r_parts_i.
    """
    parts = list(parts)
    if any(part.size == 0 for part in parts):
        raise PreconditionError("all parts must be nonempty")
    composite = mu(p, parts)
    if not is_inclusion(composite, r):
        raise PreconditionError("mu(p, parts) must be included in r")
    if not is_expressible(r):
        raise PreconditionError("r must be expressible")
    offsets = [0] * (p.size + 1)
    for a, part in enumerate(parts):
        offsets[a + 1] = offsets[a] + part.size
    blocks = [tuple(range(offsets[a], offsets[a + 1])) for a in range(p.size)]
    r_parts = [induced(r, block) for block in blocks]
    outer_pairs = [
        (a, b)
        for a in range(p.size)
        for b in range(p.size)
        if a != b and all(r.lt(x, y) for x in blocks[a] for y in blocks[b])
    ]
    r_outer = from_pairs(p.size, outer_pairs)
    return r_outer, r_parts
