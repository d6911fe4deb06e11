"""Finite strict partial orders on the carrier {0..n-1}.

Every poset in this package lives on an initial segment of the naturals and
stores its strict relation transitively closed, as one up-set mask per
element (bit j of ``rows[i]`` set means i < j).  Keeping the closure
materialized makes inclusion testing, chain enumeration, and the substitution
product cheap; antisymmetry reduces to the absence of mutually related pairs
and irreflexivity to no element in its own row.  Masks of the elements below
each element come from one transpose, :func:`comparability_graph`, where an
algorithm needs them.

The three building operations fix a canonical block numbering (first argument
first, blocks contiguous), so disjoint union and join are strictly associative
and unital on the nose and equality of posets is literal equality.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import and_
from typing import Iterable, Iterator

from .errors import ArityError, CycleError, SizeError

ENUMERATION_GUARD = 6  # labeled posets on 7 elements already number in the millions


@dataclass(frozen=True)
class FinitePoset:
    """A strict partial order, transitively closed, on elements 0..size-1.

    ``rows[i]`` is the mask of the elements strictly above i.  Build values
    through :func:`from_pairs` or the constructors below, which guarantee
    closure; the constructor itself checks only the shape of ``rows``.
    """

    size: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.size < 0:
            raise ValueError("size must be nonnegative")
        if len(self.rows) != self.size:
            raise ValueError(f"expected {self.size} rows, got {len(self.rows)}")
        if any(row < 0 or row >> self.size for row in self.rows):
            raise ValueError("relation rows out of range for size")

    def lt(self, i: int, j: int) -> bool:
        """True iff i < j in this poset."""
        return bool(self.rows[i] >> j & 1)

    def pairs(self) -> list[tuple[int, int]]:
        """All related pairs (i, j) with i < j, in lexicographic order."""
        return [(i, j) for i, row in enumerate(self.rows) for j in _mask_elements(row)]

    def above(self, i: int) -> tuple[int, ...]:
        """Elements strictly above i."""
        return _mask_elements(self.rows[i])

    def below(self, i: int) -> tuple[int, ...]:
        """Elements strictly below i."""
        return tuple(k for k, row in enumerate(self.rows) if row >> i & 1)

    def comparable(self, i: int, j: int) -> bool:
        return self.lt(i, j) or self.lt(j, i)

    def check_valid(self) -> None:
        """Raise if any poset axiom or the closure invariant fails."""
        rows = self.rows
        for i, row in enumerate(rows):
            if row >> i & 1:
                raise ValueError(f"irreflexivity violated at {i}")
        for i, row in enumerate(rows):
            for j in _mask_elements(row):
                if rows[j] >> i & 1:
                    raise ValueError(f"antisymmetry violated at ({i}, {j})")
                missing = rows[j] & ~row
                if missing:
                    k = (missing & -missing).bit_length() - 1
                    raise ValueError(f"not transitively closed at ({i}, {j}, {k})")

    def __repr__(self):
        return f"FinitePoset({self.size}, {self.pairs()!r})"


def _mask_elements(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def from_pairs(size: int, pairs: Iterable[tuple[int, int]]) -> FinitePoset:
    """Transitive closure of the given strict pairs as a poset.

    Raises IndexError for out-of-range indices and CycleError if the closure
    would violate irreflexivity or antisymmetry.
    """
    rows = [0] * size
    for i, j in pairs:
        if not (0 <= i < size and 0 <= j < size):
            raise IndexError(f"pair ({i}, {j}) out of range for size {size}")
        if i == j:
            raise CycleError((i, j))
        rows[i] |= 1 << j
    for k in range(size):
        rk = rows[k]
        for i in range(size):
            if rows[i] >> k & 1:
                rows[i] |= rk
    # Closed, a mutually related pair puts each of its elements in its own row.
    for i, row in enumerate(rows):
        if row >> i & 1:
            raise CycleError((i, i))
    return FinitePoset(size, tuple(rows))


def empty() -> FinitePoset:
    return FinitePoset(0, ())


def singleton() -> FinitePoset:
    return FinitePoset(1, (0,))


def chain(n: int) -> FinitePoset:
    """The linear order 0 < 1 < ... < n-1."""
    full = (1 << n) - 1
    return FinitePoset(n, tuple(full ^ ((2 << i) - 1) for i in range(n)))


def antichain(n: int) -> FinitePoset:
    return FinitePoset(n, (0,) * n)


def disjoint_union(p: FinitePoset, q: FinitePoset) -> FinitePoset:
    """Side-by-side placement: q's elements are shifted up by |p|, no cross pairs."""
    return substitute(antichain(2), [p, q])


def join(p: FinitePoset, q: FinitePoset) -> FinitePoset:
    """Disjoint union plus every relation from a p-element to a q-element."""
    return substitute(chain(2), [p, q])


def substitute(p: FinitePoset, parts: list[FinitePoset]) -> FinitePoset:
    """Lexicographic substitution of one poset per element of p.

    Block a occupies the contiguous index range starting at the sum of the
    earlier block sizes; x in block a precedes y in block b iff a < b in p, or
    a = b and x < y inside the block.
    """
    if len(parts) != p.size:
        raise ArityError(f"expected {p.size} parts, got {len(parts)}")
    offsets = [0] * (p.size + 1)
    for a, part in enumerate(parts):
        offsets[a + 1] = offsets[a] + part.size
    blocks = [((1 << part.size) - 1) << offsets[a] for a, part in enumerate(parts)]
    rows = []
    for a, part in enumerate(parts):
        later = sum(blocks[b] for b in _mask_elements(p.rows[a]))  # disjoint blocks
        rows += [row << offsets[a] | later for row in part.rows]
    return FinitePoset(offsets[-1], tuple(rows))


def is_inclusion(p: FinitePoset, q: FinitePoset) -> bool:
    """True iff the identity on elements is monotone from p to q."""
    return p.size == q.size and p.rows == tuple(map(and_, p.rows, q.rows))


def induced(p: FinitePoset, elements: Iterable[int]) -> FinitePoset:
    """Full sub-poset on the given elements, renumbered by position."""
    elems = list(elements)
    index = {e: k for k, e in enumerate(elems)}
    if len(index) != len(elems):
        raise ValueError("duplicate elements")
    chosen = sum(1 << e for e in elems)
    rows = (sum(1 << index[j] for j in _mask_elements(p.rows[e] & chosen)) for e in elems)
    return FinitePoset(len(elems), tuple(rows))


@dataclass(frozen=True)
class Embedding:
    """An injective, order-preserving and order-reflecting element map."""

    mapping: tuple[int, ...]

    def __call__(self, i: int) -> int:
        return self.mapping[i]


def full_embeddings(pattern: FinitePoset, target: FinitePoset) -> list[Embedding]:
    """All injections m with i < j in pattern iff m(i) < m(j) in target."""
    k, n = pattern.size, target.size
    if k > n:
        return []
    out: list[Embedding] = []
    image = [0] * k
    used = [False] * n

    def place(idx: int) -> None:
        if idx == k:
            out.append(Embedding(tuple(image)))
            return
        for cand in range(n):
            if used[cand]:
                continue
            ok = True
            for prev in range(idx):
                if pattern.lt(prev, idx) != target.lt(image[prev], cand) or pattern.lt(
                    idx, prev
                ) != target.lt(cand, image[prev]):
                    ok = False
                    break
            if ok:
                used[cand] = True
                image[idx] = cand
                place(idx + 1)
                used[cand] = False

    place(0)
    return out


def linear_extensions(p: FinitePoset) -> list[tuple[int, ...]]:
    """Every total order containing p, as element sequences bottom to top."""
    n = p.size
    preds = [near & ~row for near, row in zip(comparability_graph(p.rows), p.rows)]
    out: list[tuple[int, ...]] = []
    order: list[int] = []

    def rec(remaining: int) -> None:
        if not remaining:
            out.append(tuple(order))
            return
        m = remaining
        while m:
            low = m & -m
            m ^= low
            e = low.bit_length() - 1
            if preds[e] & remaining:
                continue
            order.append(e)
            rec(remaining ^ low)
            order.pop()

    rec((1 << n) - 1)
    return out


def linear_extension(p: FinitePoset) -> tuple[int, ...]:
    """The first of :func:`linear_extensions`, without enumerating the rest.

    Kahn's algorithm, always placing the least element whose predecessors
    are all placed.
    """
    rows = p.rows
    waiting = [(near & ~row).bit_count() for near, row in zip(comparability_graph(rows), rows)]
    ready = [e for e, count in enumerate(waiting) if count == 0]
    order = []
    while ready:
        e = heapq.heappop(ready)
        order.append(e)
        for up in _mask_elements(rows[e]):
            waiting[up] -= 1
            if waiting[up] == 0:
                heapq.heappush(ready, up)
    return tuple(order)


def is_linear_extension(p: FinitePoset, order: tuple[int, ...]) -> bool:
    if sorted(order) != list(range(p.size)):
        return False
    position = {e: k for k, e in enumerate(order)}
    return all(position[i] < position[j] for i, j in p.pairs())


def chains(p: FinitePoset) -> list[tuple[int, ...]]:
    """All nonempty strictly increasing element sequences, lexicographically."""
    n = p.size
    out: list[tuple[int, ...]] = []

    def extend(seq: list[int]) -> None:
        out.append(tuple(seq))
        for j in p.above(seq[-1]):
            seq.append(j)
            extend(seq)
            seq.pop()

    for start in range(n):
        extend([start])
    return out


def connected_components(p: FinitePoset) -> list[tuple[int, ...]]:
    """Components of the undirected comparability graph, sorted by least element."""
    comps = components(comparability_graph(p.rows), (1 << p.size) - 1)
    return [_mask_elements(c) for c in comps]


def comparability_graph(rows) -> list[int]:
    """Per element, the mask of elements comparable to it, given its row masks."""
    neighbors = list(rows)
    for i, row in enumerate(rows):
        for j in _mask_elements(row):
            neighbors[j] |= 1 << i
    return neighbors


def components(neighbors, mask: int) -> list[int]:
    """Connected components of the graph restricted to ``mask``, as masks by least element."""
    comps = []
    probe = mask
    while probe:
        comp = frontier = probe & -probe
        while frontier:
            nxt = 0
            for i in _mask_elements(frontier):
                nxt |= neighbors[i]
            nxt &= mask
            frontier = nxt & ~comp
            comp |= nxt
        comps.append(comp)
        probe &= ~comp
    return comps


def transitive_reduction(p: FinitePoset) -> list[tuple[int, int]]:
    """The cover pairs: the minimal pair set whose closure is the relation."""
    rows = p.rows
    covers = []
    for i, row in enumerate(rows):
        # Aho, Garey & Ullman (1972): j covers i unless some k above i is below j.
        through = 0
        for k in _mask_elements(row):
            through |= rows[k]
        covers += [(i, j) for j in _mask_elements(row & ~through)]
    return covers


def enumerate_posets(n: int) -> Iterator[FinitePoset]:
    """Every labeled poset on n elements exactly once, in a deterministic order.

    Guarded at n <= 6; beyond that the exhaustive-oracle role this serves is
    moot and the counts explode.
    """
    if n < 0:
        raise SizeError("n must be nonnegative")
    if n > ENUMERATION_GUARD:
        raise SizeError(f"enumerate_posets is guarded at n <= {ENUMERATION_GUARD}")
    return _enumerate(n)


def _enumerate(n: int) -> Iterator[FinitePoset]:
    if n == 0:
        yield empty()
        return
    k = n - 1
    full = (1 << k) - 1
    for base in _enumerate(k):
        rows = base.rows
        cols = [near & ~row for near, row in zip(comparability_graph(rows), rows)]
        down_closed = [
            d for d in range(full + 1) if all(cols[x] & ~d == 0 for x in _mask_elements(d))
        ]
        for d in down_closed:
            grown = tuple(row | (d >> x & 1) << k for x, row in enumerate(rows))
            allowed = full & ~d
            for x in _mask_elements(d):
                allowed &= rows[x]
            # Subsets of `allowed`, ascending, keeping only up-closed ones.
            u = 0
            while True:
                if all(rows[x] & ~u == 0 for x in _mask_elements(u)):
                    yield FinitePoset(n, grown + (u,))
                if u == allowed:
                    break
                u = (u - allowed) & allowed


# ---------------------------------------------------------------------------
# Serialization

def to_json_dict(p: FinitePoset) -> dict:
    """Poset JSON value: {"elements": n, "relations": [[i, j], ...]}."""
    return {"elements": p.size, "relations": [list(pair) for pair in p.pairs()]}


def from_json_dict(data: dict) -> FinitePoset:
    """Parse the poset JSON shape; closure is computed on load."""
    if not isinstance(data, dict) or "elements" not in data:
        raise ValueError("poset JSON must be an object with an 'elements' field")
    n = data["elements"]
    relations = data.get("relations", [])
    if not _is_json_int(n) or n < 0:
        raise ValueError("'elements' must be a nonnegative integer")
    pairs = []
    for item in relations:
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise ValueError(f"bad relation entry {item!r}")
        if not all(map(_is_json_int, item)):
            raise ValueError(f"relation entry {item!r} must hold two integers")
        pairs.append((item[0], item[1]))
    return from_pairs(n, pairs)


def _is_json_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int; they are not counts.
    return isinstance(value, int) and not isinstance(value, bool)


def to_dot(p: FinitePoset) -> str:
    """DOT digraph: one node per element, one arrow per cover pair."""
    lines = ["digraph poset {"]
    for i in range(p.size):
        lines.append(f"  {i};")
    for i, j in transitive_reduction(p):
        lines.append(f"  {i} -> {j};")
    lines.append("}")
    return "\n".join(lines)
