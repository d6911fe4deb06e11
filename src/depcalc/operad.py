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

from functools import reduce
from itertools import accumulate
from operator import and_
from typing import Sequence

from .errors import ArityError, PreconditionError, SizeError, SizeMismatch
from .expressible import is_expressible
from .poset import (
    FinitePoset,
    _mask_elements,
    _with_covers,
    chain,
    induced,
    is_inclusion,
    is_linear_extension,
    linear_extension,
    singleton,
    substitute,
)

#: Most row bits ``expressible_covers`` builds, (incomparable pairs + 1) * n * n;
#: past it, SizeError before anything is built.  Antichains up to 38 fit.
MAX_COVER_BITS = 1 << 20


def mu(p: FinitePoset, parts: Sequence[FinitePoset]) -> FinitePoset:
    """Operadic composition: lexicographic substitution of parts into p."""
    return substitute(p, list(parts))


def unit() -> FinitePoset:
    """The unique poset structure on one element."""
    return singleton()


def act(tau: Sequence[int], p: FinitePoset) -> FinitePoset:
    """Relabel p along the permutation tau (element i becomes tau[i]).

    The covers move bit by bit, and the rows are closed again from them, one
    OR per cover, taking the elements by ascending row size: each after
    every element above it.
    """
    n = p.size
    if len(tau) != n or sorted(tau) != list(range(n)):
        raise ArityError(f"not a permutation of {n} elements: {tau!r}")
    bits = [1 << t for t in tau]
    rows, covers, before = [0] * n, [0] * n, p.covers
    sizes = list(map(int.bit_count, p.rows))
    for i in sorted(range(n), key=sizes.__getitem__):
        row = moved = 0
        ups = before[i]
        while ups:
            low = ups & -ups
            j = low.bit_length() - 1
            moved |= bits[j]
            row |= rows[tau[j]]
            ups ^= low
        t = tau[i]
        rows[t] = row | moved
        covers[t] = moved
    return _with_covers(n, tuple(rows), tuple(covers))


def intersect(posets: Sequence[FinitePoset]) -> FinitePoset:
    """Pairwise intersection of the order relations (a meet in the inclusion order)."""
    if not posets:
        raise SizeMismatch("intersect requires at least one poset")
    first = posets[0]
    rows = first.rows
    for other in posets[1:]:
        if other.size != first.size:
            raise SizeMismatch(f"sizes differ: {first.size} vs {other.size}")
        rows = tuple(map(and_, rows, other.rows))
    return FinitePoset(first.size, rows)


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
    above_i = p.rows[i]
    block_i = (i,) + tuple(k for k in between if above_i >> k & 1)
    block_j = tuple(k for k in between if not above_i >> k & 1) + (j,)
    # The chain along prefix, Q_i, Q_j' and suffix, less the pairs from Q_i to Q_j'.
    rows = [0] * p.size
    above = 0
    for e in reversed(prefix + block_i + block_j + suffix):
        rows[e] = above
        above |= 1 << e
    apart = sum(1 << k for k in block_j)
    for k in block_i:
        rows[k] &= ~apart
    witness = FinitePoset(p.size, tuple(rows))
    # Along an extension the chains keep every relation of p except those
    # between the two blocks; report the least such pair.
    for x, row in enumerate(p.rows):
        lost = row & ~witness.rows[x]
        if lost:
            y = (lost & -lost).bit_length() - 1
            raise PreconditionError(
                f"extension does not separate the pair: relation ({x}, {y}) "
                "crosses the two incomparability blocks"
            )
    return witness


def _separating_extension(p: FinitePoset, i: int, j: int) -> tuple[int, ...]:
    """A linear extension of p in which i immediately precedes j."""
    pair = 1 << i | 1 << j
    below = sum(1 << x for x, row in enumerate(p.rows) if row & pair)
    lower = _mask_elements(below)
    rest = _mask_elements(((1 << p.size) - 1) & ~(below | pair))
    head = linear_extension(induced(p, lower))
    tail = linear_extension(induced(p, rest))
    return tuple(lower[k] for k in head) + (i, j) + tuple(rest[k] for k in tail)


def expressible_covers(p: FinitePoset) -> list[FinitePoset]:
    """Expressible posets containing p whose relation-intersection is exactly p.

    One linear extension of p, plus one incomparability witness per unordered
    incomparable pair, each built over a pair-adapted extension.
    """
    n = p.size
    pairs = n * (n - 1) // 2 - sum(row.bit_count() for row in p.rows)
    if (pairs + 1) * n * n > MAX_COVER_BITS:
        raise SizeError(f"covers of {n} elements, {pairs} incomparable pairs, pass "
                        f"the guard of {MAX_COVER_BITS} row bits")
    covers = [act(linear_extension(p), chain(n))]
    for i in range(n):
        for j in range(i + 1, n):
            if p.comparable(i, j):
                continue
            ext = _separating_extension(p, i, j)
            covers.append(incomparability_witness(p, ext, i, j))
    return list(dict.fromkeys(covers))  # first occurrences, in order


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
    offsets = list(accumulate((part.size for part in parts), initial=0))
    blocks = [range(offsets[a], offsets[a + 1]) for a in range(p.size)]
    r_parts = [induced(r, block) for block in blocks]
    # Block a lies below block b when the AND of a's rows holds all of b; r is
    # closed and antisymmetric, so these rows are too.
    masks = [((1 << len(block)) - 1) << block.start for block in blocks]
    common = [reduce(and_, map(r.rows.__getitem__, block)) for block in blocks]
    rows = (sum(1 << b for b, mask in enumerate(masks) if c & mask == mask) for c in common)
    return FinitePoset(p.size, tuple(rows)), r_parts
