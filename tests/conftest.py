"""Shared oracles and generators for the test suite.

The oracles here deliberately avoid the library's own algorithms: poset
counting enumerates raw relation subsets and filters by the axioms, the
pair-set oracle restates each poset operation on explicit sets of pairs, the
expressible-set oracle searches all binary build trees, the zig-zag oracle
tries every ordered quadruple of elements, the tropical oracle
sums over explicitly enumerated chains, and the strategy oracle for the
polynomial product enumerates choice functions directly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product

from depcalc import FinitePoset, chains, empty, enumerate_posets, from_pairs
from depcalc.expression import Tri, Unit, Var
from depcalc.diagram import (
    GenCell,
    IdCell,
    PartialPolygraph,
    StringDiagram,
    SwapCell,
    total_polygraph,
)


# ---------------------------------------------------------------------------
# Poset oracles

def oracle_count_posets(n: int) -> int:
    """Count strict orders by filtering raw relation subsets.

    For n <= 4 every subset of ordered pairs is generated and filtered by all
    three axioms; for n == 5 antisymmetry is built into the generation (three
    choices per unordered pair) and transitivity filtered, which enumerates
    the same relation space without the 2^20 blowup.
    """
    if n <= 1:
        return 1
    if n <= 4:
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        count = 0
        for mask in range(1 << len(pairs)):
            rel = {pairs[k] for k in range(len(pairs)) if mask >> k & 1}
            if _is_strict_order(rel):
                count += 1
        return count
    if n == 5:
        slots = list(combinations(range(n), 2))
        count = 0
        for choice in product((0, 1, 2), repeat=len(slots)):
            rel = set()
            for (i, j), c in zip(slots, choice):
                if c == 1:
                    rel.add((i, j))
                elif c == 2:
                    rel.add((j, i))
            if _is_transitive(rel):
                count += 1
        return count
    raise ValueError("oracle is deliberately capped at n = 5")


def _is_strict_order(rel: set) -> bool:
    if any((j, i) in rel for i, j in rel):
        return False
    return _is_transitive(rel)


def _is_transitive(rel: set) -> bool:
    return all((i, k) in rel for i, j in rel for j2, k in rel if j == j2)


# ---------------------------------------------------------------------------
# Pair-set oracle: every operation restated on explicit sets of pairs, read
# from nothing but ``size`` and ``pairs()``

def packed(p: FinitePoset) -> int:
    """The relation as one int with bit i*n+j set for i < j; a stable sort key."""
    return sum(1 << (i * p.size + j) for i, j in p.pairs())


def relation(p: FinitePoset) -> tuple[int, frozenset]:
    """(size, pair set): the shape every pair-set oracle returns."""
    return p.size, frozenset(p.pairs())


def oracle_union(p: FinitePoset, q: FinitePoset) -> tuple[int, frozenset]:
    n = p.size
    return n + q.size, frozenset(p.pairs()) | {(i + n, j + n) for i, j in q.pairs()}


def oracle_join(p: FinitePoset, q: FinitePoset) -> tuple[int, frozenset]:
    size, rel = oracle_union(p, q)
    return size, rel | {(i, j) for i in range(p.size) for j in range(p.size, size)}


def oracle_substitute(p: FinitePoset, parts) -> tuple[int, frozenset]:
    starts = [sum(part.size for part in parts[:a]) for a in range(len(parts) + 1)]
    rel = set()
    for a, part in enumerate(parts):
        rel |= {(starts[a] + i, starts[a] + j) for i, j in part.pairs()}
    for a, b in p.pairs():
        rel |= {(x, y) for x in range(starts[a], starts[a + 1]) for y in range(starts[b], starts[b + 1])}
    return starts[-1], frozenset(rel)


def oracle_induced(p: FinitePoset, elements) -> tuple[int, frozenset]:
    at = {e: k for k, e in enumerate(elements)}
    return len(at), frozenset((at[i], at[j]) for i, j in p.pairs() if i in at and j in at)


def oracle_act(tau, p: FinitePoset) -> tuple[int, frozenset]:
    return p.size, frozenset((tau[i], tau[j]) for i, j in p.pairs())


def oracle_intersect(posets) -> tuple[int, frozenset]:
    return posets[0].size, frozenset.intersection(*(frozenset(q.pairs()) for q in posets))


def oracle_covers(p: FinitePoset) -> list[tuple[int, int]]:
    rel = set(p.pairs())
    return sorted(
        (i, j) for i, j in rel if not any((i, k) in rel and (k, j) in rel for k in range(p.size))
    )


def oracle_evaluate(expr) -> tuple[tuple[int, ...], frozenset]:
    """(variables left to right, pair set over them) of a term: ox places its
    children side by side, tri puts every earlier child below every later one."""
    if isinstance(expr, Unit):
        return (), frozenset()
    if isinstance(expr, Var):
        return (expr.index,), frozenset()
    blocks = [oracle_evaluate(child) for child in expr.children]
    rel = set().union(*(block_rel for _, block_rel in blocks))
    if isinstance(expr, Tri):
        for a, (low, _) in enumerate(blocks):
            for high, _ in blocks[a + 1 :]:
                rel |= {(x, y) for x in low for y in high}
    return tuple(v for block, _ in blocks for v in block), frozenset(rel)


@lru_cache(maxsize=None)
def _buildable(labels: tuple) -> frozenset:
    """All relation sets reachable from singletons on `labels` by binary
    disjoint unions and joins (in either order)."""
    if len(labels) == 1:
        return frozenset({frozenset()})
    out = set()
    rest = labels[1:]
    anchor = labels[0]
    for size_a in range(0, len(rest) + 1):
        for picked in combinations(rest, size_a):
            part_a = tuple(sorted((anchor,) + picked))
            part_b = tuple(sorted(set(rest) - set(picked)))
            if not part_b:
                continue
            cross_ab = frozenset((x, y) for x in part_a for y in part_b)
            cross_ba = frozenset((y, x) for x in part_a for y in part_b)
            for ra in _buildable(part_a):
                for rb in _buildable(part_b):
                    base = ra | rb
                    out.add(base)
                    out.add(base | cross_ab)
                    out.add(base | cross_ba)
    return frozenset(out)


@lru_cache(maxsize=None)
def buildable_posets(n: int) -> frozenset:
    """Every expressible poset on {0..n-1}, found by brute-force build search."""
    if n == 0:
        return frozenset({empty()})
    return frozenset(
        from_pairs(n, rel) for rel in _buildable(tuple(range(n)))
    )


def oracle_find_z(p: FinitePoset):
    """The first 4-permutation of the elements whose induced relation is the zig-zag.

    Permutations come in lexicographic order, so this is the least quadruple
    (a, b, c, d) among the poset's related pairs with exactly a < b, c < b,
    c < d; None when there is none.
    """
    rel = set(p.pairs())
    for quad in permutations(range(p.size), 4):
        a, b, c, d = quad
        if (a, b) not in rel or (c, b) not in rel or (c, d) not in rel:
            continue
        if {(x, y) for x in quad for y in quad if (x, y) in rel} == {(a, b), (c, b), (c, d)}:
            return quad
    return None


def random_sp_poset(rng: random.Random, n: int, planted: bool = False) -> FinitePoset:
    """A series-parallel poset on n shuffled labels from a random binary build tree.

    With ``planted`` (n >= 4), four of the labels form a zig-zag module
    (z0 < z1, z2 < z1, z2 < z3) that the tree treats as one leaf.
    """
    labels = list(range(n))
    rng.shuffle(labels)
    blocks = [((x,), frozenset()) for x in labels]
    if planted:
        z = labels[:4]
        blocks[:4] = [(tuple(z), frozenset({(z[0], z[1]), (z[2], z[1]), (z[2], z[3])}))]
        rng.shuffle(blocks)

    def build(parts):
        if len(parts) == 1:
            return parts[0]
        k = rng.randint(1, len(parts) - 1)
        (low, rel_low), (high, rel_high) = build(parts[:k]), build(parts[k:])
        rel = rel_low | rel_high
        if rng.random() < 0.5:
            rel |= {(x, y) for x in low for y in high}
        return low + high, rel

    return from_pairs(n, build(blocks)[1])


@lru_cache(maxsize=None)
def all_posets(n: int) -> tuple:
    return tuple(enumerate_posets(n))


def alternating_nest(depth: int) -> str:
    """(ox x0 (tri x1 (ox x2 ...))) with `depth` parentheses; no level flattens."""
    heads = ("ox", "tri")
    opened = "".join(f"({heads[k % 2]} x{k} " for k in range(depth))
    return opened + f"x{depth}" + ")" * depth


# ---------------------------------------------------------------------------
# Tropical oracle

def chain_sum_boxtimes(p: FinitePoset, values) -> Fraction:
    """Independent evaluation: max over explicitly enumerated chains."""
    if p.size == 0:
        return Fraction(0)
    return max(sum(values[e] for e in c) for c in chains(p))


def random_runtime(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(0, 12), rng.randint(1, 8))


# ---------------------------------------------------------------------------
# Polynomial strategy oracle

def strategy_oracle(p: FinitePoset, parts, extension) -> tuple:
    """Direction-count multiset of the poset product, by direct enumeration.

    Enumerates, stage by stage, every choice function from the dependent
    product of predecessor directions to positions, materializing the domain
    as explicit tuples; independent of the library's recursion shape.
    """
    ell = tuple(extension)
    n = p.size
    polys = [parts[e] for e in ell]
    preds = [tuple(t for t in range(k) if p.lt(ell[t], ell[k])) for k in range(n)]

    def domains(upto: tuple, chosen: tuple) -> list[tuple]:
        # All assignments (stage -> direction) over the pred-closed set `upto`,
        # as sorted tuples of (stage, direction).
        result = [()]
        for t in upto:
            grown = []
            for asg in result:
                table = dict(asg)
                key = tuple(table[u] for u in preds[t])
                position = dict(chosen[t])[key]
                for d in range(polys[t].directions[position]):
                    grown.append(asg + ((t, d),))
            result = grown
        return result

    counts = []

    def extend(k: int, chosen: tuple) -> None:
        if k == n:
            counts.append(len(domains(tuple(range(n)), chosen)))
            return
        keys = [
            tuple(dict(asg)[u] for u in preds[k]) for asg in domains(preds[k], chosen)
        ]
        for combo in product(range(polys[k].positions), repeat=len(keys)):
            extend(k + 1, chosen + (tuple(zip(keys, combo)),))

    extend(0, ())
    return tuple(sorted(counts, reverse=True))


# ---------------------------------------------------------------------------
# Random layered diagrams

DIAGRAM_GENS = {
    "a": (["w"], ["w"]),
    "b": (["w"], ["w", "w"]),
    "c": (["w", "w"], ["w"]),
    "d": (["w", "w"], ["w", "w"]),
    "f": ([], ["w"]),
    "g": (["w"], []),
}


def diagram_polygraph() -> PartialPolygraph:
    return total_polygraph(DIAGRAM_GENS)


def random_diagram(
    rng: random.Random,
    polygraph: PartialPolygraph | None = None,
    max_instances: int = 8,
    layer_count: int | None = None,
    start_width: int | None = None,
) -> StringDiagram:
    pg = polygraph or diagram_polygraph()
    gens = pg.gen_map()
    width = rng.randint(1, 3) if start_width is None else start_width
    depth = layer_count if layer_count is not None else rng.randint(1, 4)
    inputs = ("w",) * width
    used = 0
    layers = []
    for _ in range(depth):
        cells = []
        pos = 0
        while pos < width:
            remaining = width - pos
            options = ["id"]
            if remaining >= 2:
                options.append("swap")
            if used < max_instances:
                options += [
                    name
                    for name, (src, _) in gens.items()
                    if src and len(src) <= remaining
                ]
            pick = rng.choice(options)
            if pick == "id":
                cells.append(IdCell("w"))
                pos += 1
            elif pick == "swap":
                cells.append(SwapCell("w", "w"))
                pos += 2
            else:
                cells.append(GenCell(pick))
                pos += len(gens[pick][0])
                used += 1
        if used < max_instances and rng.random() < 0.15:
            cells.append(GenCell("f"))
            used += 1
        layers.append(tuple(cells))
        width = sum(
            len(gens[c.gen][1]) if isinstance(c, GenCell) else (2 if isinstance(c, SwapCell) else 1)
            for c in cells
        )
    return StringDiagram(pg, inputs, ("w",) * width, tuple(layers))
