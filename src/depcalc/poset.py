"""Finite strict partial orders on the carrier {0..n-1}.

Every poset in this package lives on an initial segment of the naturals and
stores its strict relation transitively closed, as one up-set mask per
element (bit j of ``rows[i]`` set means i < j).  Keeping the closure
materialized makes inclusion testing and the substitution product cheap;
antisymmetry reduces to the absence of mutually related pairs and
irreflexivity to no element in its own row.  Each poset also carries its
cover relation, one mask per element (``covers``), which the building
operations fill as they build: the transitive reduction, the topological
walk and the schedules read it, and the masks of the elements below each
element come from it (:func:`comparability_graph`), one OR per cover.

The three building operations fix a canonical block numbering (first argument
first, blocks contiguous), so disjoint union and join are strictly associative
and unital on the nose and equality of posets is literal equality.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate
from operator import and_, or_
from typing import Iterable, Iterator

from .errors import ArityError, CycleError, SizeError
from .record import Record

ENUMERATION_GUARD = 6  # labeled posets on 7 elements already number in the millions
#: Most entries, orders times elements, :func:`linear_extensions` returns:
#: antichain(8) holds 322,560 and antichain(9) would hold 3,265,920.
EXTENSION_GUARD = 1 << 20

#: Most elements a poset read from user input may have: poset JSON and the
#: ``x<i>`` variables of expression text.  The closure of a poset this size is
#: 32 MB of row masks; the library's own constructors are not capped.
MAX_ELEMENTS = 1 << 14


class FinitePoset(Record):
    """A strict partial order, transitively closed, on elements 0..size-1.

    ``rows[i]`` is the mask of the elements strictly above i.  Build values
    through :func:`from_pairs` or the constructors below, which guarantee
    closure; the constructor itself checks only the shape of ``rows``.
    Values are immutable, compare and hash by ``(size, rows)``, and key the
    memo caches of ``decompose`` and of ``find_z``, its obstruction.  The
    cover masks ride along outside those fields, so they play no part in
    equality, hashing, ``repr`` or pickling.
    """

    __match_args__ = ("size", "rows")
    __slots__ = (*__match_args__, "_covers")

    def __init__(self, size: int, rows: tuple[int, ...]):
        if size < 0:
            raise ValueError("size must be nonnegative")
        if len(rows) != size:
            raise ValueError(f"expected {size} rows, got {len(rows)}")
        if rows and (min(rows) < 0 or max(rows) >> size):
            raise ValueError("relation rows out of range for size")
        super().__init__(size, rows)

    @property
    def covers(self) -> tuple[int, ...]:
        """Per element, the mask of the elements covering it.

        The constructors of this module and ``operad.act`` carry them;
        ``induced`` and a bare ``FinitePoset(size, rows)`` find them on first
        read, once.
        """
        try:
            return self._covers
        except AttributeError:
            found = _search_covers(self.rows)
            _set_covers(self, found)
            return found

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


_set_covers = FinitePoset._covers.__set__


def _with_covers(size: int, rows: tuple[int, ...], covers: tuple[int, ...]) -> FinitePoset:
    """The poset on ``rows``, carrying ``covers``, which must be its cover masks."""
    p = FinitePoset(size, rows)
    _set_covers(p, covers)
    return p


def _mask_elements(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def from_pairs(size: int, pairs: Iterable[tuple[int, int]]) -> FinitePoset:
    """Transitive closure of the given strict pairs as a poset.

    Raises IndexError for out-of-range indices and CycleError, with (m, m)
    for m the least element on a cycle, if the closure would violate
    irreflexivity or antisymmetry.  One depth-first search closes each
    element at post-order from its closed successors (Goralčíková & Koubek,
    1979), skipping any that another one reaches: a step per pair read and
    per element, plus one per successor not skipped, which for a closed pair
    list numbered along the order is one per cover.  The successors kept
    hold every cover, and the covers are those that no kept successor's row
    reaches (Aho, Garey & Ullman, 1972), so the result carries them.
    """
    succ = [0] * size
    for i, j in pairs:
        if not (0 <= i < size and 0 <= j < size):
            raise IndexError(f"pair ({i}, {j}) out of range for size {size}")
        if i == j:
            raise CycleError((i, j))
        succ[i] |= 1 << j
    rows = [0] * size
    covers = [0] * size
    seen = done = back = 0  # reached, closed, and targets of back edges
    finished = []  # the post-order
    for root in range(size):
        if seen >> root & 1:
            continue
        stack = [root]
        seen |= 1 << root
        while stack:
            e = stack[-1]
            fresh = succ[e] & ~seen
            if fresh:
                low = fresh & -fresh
                stack.append(low.bit_length() - 1)
                seen |= low
                continue
            stack.pop()
            back |= succ[e] & ~done  # reached, not closed: on the search path
            done |= 1 << e
            finished.append(e)
            row = through = 0
            m = succ[e]
            while m:
                low = m & -m
                up = rows[low.bit_length() - 1]
                through |= up
                row |= low | up
                m &= ~row
            rows[e] = row
            covers[e] = row & ~through
    if back:
        # Kosaraju: searching back along the pairs from the latest finished
        # element left takes one strongly connected component; a step per
        # element and per pair.
        pred = [0] * size
        for i, row in enumerate(succ):
            for j in _mask_elements(row):
                pred[j] |= 1 << i
        left, least = (1 << size) - 1, size
        for v in reversed(finished):
            if left >> v & 1:
                comp = _reach(pred, 1 << v, left)
                left &= ~comp
                if comp & (comp - 1):  # two or more elements: a cycle
                    least = min(least, (comp & -comp).bit_length() - 1)
        raise CycleError((least, least))
    return _with_covers(size, tuple(rows), tuple(covers))


def empty() -> FinitePoset:
    return FinitePoset(0, ())


def singleton() -> FinitePoset:
    return FinitePoset(1, (0,))


def chain(n: int) -> FinitePoset:
    """The linear order 0 < 1 < ... < n-1."""
    full = (1 << n) - 1
    rows = tuple(full ^ ((2 << i) - 1) for i in range(n))
    return _with_covers(n, rows, tuple(row & -row for row in rows))  # i + 1 covers i


def antichain(n: int) -> FinitePoset:
    return _with_covers(n, (0,) * n, (0,) * n)


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
    a = b and x < y inside the block.  The covers are the parts' own, plus,
    for each cover a < b of p, every maximal element of block a covered by
    every minimal element of block b.  That holds once the empty blocks are
    dropped, which leaves the relation as it is.
    """
    if len(parts) != p.size:
        raise ArityError(f"expected {p.size} parts, got {len(parts)}")
    sizes = [part.size for part in parts]
    if 0 in sizes:
        kept = [a for a, size in enumerate(sizes) if size]
        p, parts, sizes = induced(p, kept), [parts[a] for a in kept], [sizes[a] for a in kept]
    offsets = list(accumulate(sizes, initial=0))
    blocks = [((1 << size) - 1) << offset for size, offset in zip(sizes, offsets)]
    least = [block & ~(reduce(or_, part.rows) << offset)
             for block, part, offset in zip(blocks, parts, offsets)]
    rows, covers = [], []
    for part, offset, above, ups in zip(parts, offsets, p.rows, p.covers):
        later = nxt = 0  # the blocks above, and the least elements of those covering
        while above:
            low = above & -above
            later |= blocks[low.bit_length() - 1]
            above ^= low
        while ups:
            low = ups & -ups
            nxt |= least[low.bit_length() - 1]
            ups ^= low
        rows += [row << offset | later for row in part.rows]
        covers += [up << offset | (0 if row else nxt) for row, up in zip(part.rows, part.covers)]
    return _with_covers(offsets[-1], tuple(rows), tuple(covers))


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


def linear_extensions(p: FinitePoset) -> list[tuple[int, ...]]:
    """Every total order containing p, as element sequences bottom to top, sorted.

    Raises SizeError before the orders held would pass ``EXTENSION_GUARD``
    entries, counting each order as its p.size elements.
    """
    out = []
    for order in _extensions(_cover_lists(p)):
        if (len(out) + 1) * p.size > EXTENSION_GUARD:
            raise SizeError(f"linear_extensions is guarded at {EXTENSION_GUARD} entries")
        out.append(order)
    return out


def linear_extension(p: FinitePoset) -> tuple[int, ...]:
    """The first of :func:`linear_extensions`, without enumerating the rest."""
    return next(_extensions(_cover_lists(p)))


def _cover_lists(p: FinitePoset) -> list[tuple[int, ...]]:
    return list(map(_mask_elements, p.covers))


def _extensions(covers: list[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
    """The linear extensions in lexicographic order, given each element's upper covers.

    An element is ready once its lower covers are all placed, so placing one,
    or backing out of it, steps once per cover.  The walk keeps only the
    order so far: each position tries its ready elements least first, and
    after backing out of e the next candidate is the least ready one above e.
    """
    waiting = [0] * len(covers)
    for ups in covers:
        for up in ups:
            waiting[up] += 1
    ready = sum(1 << e for e, count in enumerate(waiting) if count == 0)
    order: list[int] = []
    floor = 0  # candidates for the next position are the ready ones from here up
    while True:
        m = ready >> floor
        if m:
            e = floor + (m & -m).bit_length() - 1
            order.append(e)
            ready ^= 1 << e
            for up in covers[e]:
                waiting[up] -= 1
                if not waiting[up]:
                    ready |= 1 << up
            floor = 0
            continue
        if len(order) == len(covers):  # nothing is ready once every element is placed
            yield tuple(order)
        if not order:
            return
        e = order.pop()  # back out of the last element placed
        for up in covers[e]:
            if not waiting[up]:
                ready ^= 1 << up
            waiting[up] += 1
        ready |= 1 << e
        floor = e + 1


def is_linear_extension(p: FinitePoset, order: tuple[int, ...]) -> bool:
    if sorted(order) != list(range(p.size)):
        return False
    earlier = accumulate((1 << e for e in order), or_, initial=0)  # placed before e
    return not any(p.rows[e] & placed for e, placed in zip(order, earlier))


def connected_components(p: FinitePoset) -> list[tuple[int, ...]]:
    """Components of the undirected comparability graph, sorted by least element."""
    comps = components(comparability_graph(p), (1 << p.size) - 1)
    return [_mask_elements(c) for c in comps]


def comparability_graph(p: FinitePoset) -> list[int]:
    """Per element, the mask of elements comparable to it.

    Taken by descending row size, a linear extension, each element has its
    down-set complete and pushes it, with itself, to the elements covering
    it: one OR per cover.
    """
    rows, covers = p.rows, p.covers
    down = [0] * p.size
    sizes = list(map(int.bit_count, rows))
    for i in sorted(range(p.size), key=sizes.__getitem__, reverse=True):
        mine = down[i] | 1 << i
        ups = covers[i]
        while ups:
            low = ups & -ups
            down[low.bit_length() - 1] |= mine
            ups ^= low
    return list(map(or_, rows, down))


def components(neighbors, mask: int) -> list[int]:
    """Connected components of the graph restricted to ``mask``, as masks by least element."""
    comps = []
    while mask:
        comp = _reach(neighbors, mask & -mask, mask)
        comps.append(comp)
        mask &= ~comp
    return comps


def _reach(graph, seed: int, within: int) -> int:
    """Breadth first, the elements of ``within`` reached from ``seed`` along ``graph``'s masks."""
    reached = frontier = seed
    while frontier:
        out = reduce(or_, map(graph.__getitem__, _mask_elements(frontier)))
        frontier = out & within & ~reached
        reached |= frontier
    return reached


def _search_covers(rows) -> tuple[int, ...]:
    """Per element, the mask of the elements covering it, given closed row masks.

    Aho, Garey & Ullman (1972): j covers i unless some k above i is below j.
    Candidates are the least and the greatest label not yet reached, in
    turn, and reach their rows; the covers are the candidates no candidate
    reaches.  Exact for any numbering, at a step per candidate: at most two
    per cover when labels rise or fall along the order, else up to one per
    related pair.  Only posets built without their covers need it.
    """
    covers = []
    for row in rows:
        picked = through = 0
        remaining = row
        while remaining:
            low = remaining & -remaining
            above = rows[low.bit_length() - 1]
            picked |= low
            through |= above
            remaining &= ~(low | above)
            if remaining:
                k = remaining.bit_length() - 1
                picked |= 1 << k
                through |= rows[k]
                remaining &= ~(1 << k | rows[k])
        covers.append(picked & ~through)
    return tuple(covers)


def transitive_reduction(p: FinitePoset) -> list[tuple[int, int]]:
    """The cover pairs: the minimal pair set whose closure is the relation."""
    return [(i, j) for i, up in enumerate(p.covers) for j in _mask_elements(up)]


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
        cols = [near & ~row for near, row in zip(comparability_graph(base), rows)]
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
    if n > MAX_ELEMENTS:
        raise SizeError(f"poset has {n} elements; at most {MAX_ELEMENTS} are accepted")
    if not isinstance(relations, list):
        raise ValueError("'relations' must be a list of [i, j] pairs")
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
