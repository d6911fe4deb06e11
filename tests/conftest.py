"""Shared oracles and generators for the test suite.

The oracles here deliberately avoid the library's own algorithms: poset
counting enumerates raw relation subsets and filters by the axioms, the
pair-set oracle restates each poset operation on explicit sets of pairs (the
closure by one search per element, the first linear extension by predecessor
sets, the incomparability witness as chain pairs closed by ``from_pairs``), the
expressible-set oracle searches all binary build trees, the zig-zag oracle
tries every ordered quadruple of elements (a search for full embeddings of
the zig-zag), the tropical oracle sums over the chains it walks out of the
pair set itself, the Gantt oracle tests every chart cell against its time
window, and the strategy oracle for the polynomial product enumerates choice
functions directly.

The duality helpers (``opposite``, ``mirror``) are not oracles: the tests that
use them run the library on a poset and on its opposite and compare, so they
check answers at sizes the pair-set oracles cannot reach.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product

from hypothesis import settings

from depcalc import (
    FinitePoset,
    PreconditionError,
    act,
    empty,
    enumerate_posets,
    from_pairs,
    transitive_reduction,
)
from depcalc.expression import Otimes, Tri, Unit, Var
from depcalc.structure_maps import Compose, Equiv, InterchangerSubst, OtimesPar, TriPar
from depcalc.diagram import (
    GenCell,
    IdCell,
    PartialPolygraph,
    StringDiagram,
    SwapCell,
    total_polygraph,
)

# Property tests draw the same examples on every run and keep no example
# database, so a failure seen once is seen on every run.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


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


def oracle_closure(size: int, pairs) -> frozenset:
    """Every pair (i, j) with a path of given pairs from i to j, (m, m) for m on a cycle.

    One search per element over successor sets built from the pairs.
    """
    succ = {i: set() for i in range(size)}
    for i, j in pairs:
        succ[i].add(j)
    closed = set()
    for i in range(size):
        reached, todo = set(), list(succ[i])
        while todo:
            j = todo.pop()
            if j not in reached:
                reached.add(j)
                todo.extend(succ[j])
        closed |= {(i, j) for j in reached}
    return frozenset(closed)


def oracle_comparable(p: FinitePoset) -> list[frozenset]:
    """Per element, the set of elements related to it either way."""
    near = [set() for _ in range(p.size)]
    for i, j in p.pairs():
        near[i].add(j)
        near[j].add(i)
    return [frozenset(s) for s in near]


def oracle_linear_extension(p: FinitePoset) -> tuple[int, ...]:
    """Kahn by pairs: always place the least element whose predecessors are all placed."""
    below = {j: set() for j in range(p.size)}
    for i, j in p.pairs():
        below[j].add(i)
    order: list[int] = []
    placed: set = set()
    while len(order) < p.size:
        order.append(min(e for e in range(p.size) if e not in placed and below[e] <= placed))
        placed.add(order[-1])
    return tuple(order)


def oracle_is_linear_extension(p: FinitePoset, order) -> bool:
    """A permutation of the elements that lists every related pair in order."""
    if sorted(order) != list(range(p.size)):
        return False
    return all(order.index(i) < order.index(j) for i, j in p.pairs())


def oracle_witness(p: FinitePoset, extension, i: int, j: int) -> FinitePoset:
    """The incomparability witness from explicit chain pairs, closed by ``from_pairs``.

    prefix-chain tri (Q_i ox Q_j') tri suffix-chain, each block chained in
    extension order; raises PreconditionError with the library's texts, the
    crossing pair being the least related pair with exactly one end in Q_i.
    """
    order = tuple(extension)
    if not oracle_is_linear_extension(p, order):
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
        pairs += list(combinations(chain_part, 2))
    middle = block_i + block_j
    pairs += [(x, y) for x in prefix for y in middle + suffix]
    pairs += [(x, y) for x in middle for y in suffix]
    return from_pairs(p.size, pairs)


def oracle_evaluate(expr) -> tuple[tuple[int, ...], frozenset]:
    """(variables left to right, pair set over them) of a term: ox places its
    children side by side, tri puts every earlier child below every later one."""
    if isinstance(expr, Unit):
        return (), frozenset()
    if isinstance(expr, Var):
        return (expr.index,), frozenset()
    kind = "tri" if isinstance(expr, Tri) else "ox"
    return _oracle_product(kind, [oracle_evaluate(child) for child in expr.children])


def relabel(expr, label):
    """The term with each variable x<v> renamed x<label(v)>, built node by node."""
    if isinstance(expr, Var):
        return Var(label(expr.index))
    if isinstance(expr, (Otimes, Tri)):
        return type(expr)(tuple(relabel(child, label) for child in expr.children))
    return expr


def _oracle_product(kind: str, blocks):
    """ox or tri of (variables, pair set) blocks; ValueError if a variable repeats."""
    order = tuple(v for block, _ in blocks for v in block)
    if len(set(order)) != len(order):
        raise ValueError("a variable repeats")
    rel = set().union(*(block_rel for _, block_rel in blocks))
    if kind == "tri":
        for a, (low, _) in enumerate(blocks):
            for high, _ in blocks[a + 1 :]:
                rel |= {(x, y) for x in low for y in high}
    return order, frozenset(rel)


def oracle_verify_proof(proof) -> bool:
    """``verify_proof`` restated on pair sets.

    Every node's endpoints are computed bottom-up: an Equiv leaf's with
    ``oracle_evaluate``, any other node's from its children's with the ox and
    tri pair-set products, the interchanger's as (a tri b) ox (c tri d) and
    (a ox c) tri (b ox d).  A proof passes when every node does: its
    endpoints repeat no variable and have the same variables; an Equiv's two
    relations are equal, any other node's source relation lies inside its
    target's; and a Compose's left target is its right source as a poset.
    Uses no ``up_sets``, restriction or normal form.
    """
    ends: dict = {}  # id of a checked node -> its (source, target)

    def endpoints(node):
        if id(node) in ends:
            return ends[id(node)]
        kind = type(node).__name__
        if kind == "Equiv":
            src, tgt = oracle_evaluate(node.source), oracle_evaluate(node.target)
        elif kind == "Compose":
            (src, mid), (mid2, tgt) = endpoints(node.left), endpoints(node.right)
            if (sorted(mid[0]), mid[1]) != (sorted(mid2[0]), mid2[1]):
                raise ValueError("compose sides do not meet")
        elif kind == "InterchangerSubst":
            a, b, c, d = map(endpoints, node.corners)
            src = _oracle_product("ox", [_oracle_product("tri", [a[0], b[0]]),
                                         _oracle_product("tri", [c[0], d[0]])])
            tgt = _oracle_product("tri", [_oracle_product("ox", [a[1], c[1]]),
                                          _oracle_product("ox", [b[1], d[1]])])
        else:
            parts = [endpoints(part) for part in node.parts]
            op = "ox" if kind == "OtimesPar" else "tri"
            src = _oracle_product(op, [s for s, _ in parts])
            tgt = _oracle_product(op, [t for _, t in parts])
        if set(src[0]) != set(tgt[0]):
            raise ValueError("endpoints differ in their variables")
        if not (src[1] == tgt[1] if kind == "Equiv" else src[1] <= tgt[1]):
            raise ValueError("not an inclusion")
        ends[id(node)] = src, tgt
        return src, tgt

    try:
        endpoints(proof)
    except ValueError:
        return False
    return True


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


def random_sp_covers(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """The cover pairs of a series-parallel poset on n shuffled labels, never closed.

    A random binary build tree as in ``random_sp_poset``; a series node adds
    every maximal element of its lower part below every minimal one of its
    upper part, and those are exactly the new covers.  Cheap at any size the
    command line accepts.
    """
    labels = list(range(n))
    rng.shuffle(labels)
    covers: list[tuple[int, int]] = []

    def build(lo: int, hi: int):  # (minimal, maximal) elements of labels[lo:hi]
        if hi - lo == 1:
            return [labels[lo]], [labels[lo]]
        k = rng.randint(lo + 1, hi - 1)
        (low_min, low_max), (high_min, high_max) = build(lo, k), build(k, hi)
        if rng.random() < 0.5:
            covers.extend((x, y) for x in low_max for y in high_min)
            return low_min, high_max
        return low_min + high_min, low_max + high_max

    if n:
        build(0, n)
    return covers


@lru_cache(maxsize=None)
def all_posets(n: int) -> tuple:
    return tuple(enumerate_posets(n))


def middle_out(n: int) -> list[int]:
    """The labels n/2, n/2 + 1, n/2 - 1, n/2 + 2, ..., 0: they neither rise nor
    fall along an order listed in that sequence."""
    half = n // 2
    return sorted(range(n), key=lambda v: 2 * (v - half) - 1 if v > half else 2 * (half - v))


def opposite(p: FinitePoset) -> FinitePoset:
    """p°: i < j exactly when j < i in p, closed from p's reversed cover pairs."""
    return from_pairs(p.size, [(j, i) for i, j in transitive_reduction(p)])


def mirror(x):
    """The dual of a term or a proof under p -> p°, built node by node.

    ox is symmetric and tri reverses its order, so a term's mirror reverses
    every Tri's children.  A proof's mirror reverses TriPar's parts and swaps
    the interchanger's corners a <-> b and c <-> d: the mirror of
    (a tri b) ox (c tri d) -> (a ox c) tri (b ox d) is
    (b° tri a°) ox (d° tri c°) -> (b° ox d°) tri (a° ox c°).
    """
    if isinstance(x, (Var, Unit)):
        return x
    if isinstance(x, Otimes):
        return Otimes(tuple(map(mirror, x.children)))
    if isinstance(x, Tri):
        return Tri(tuple(map(mirror, reversed(x.children))))
    if isinstance(x, Equiv):
        return Equiv(mirror(x.source), mirror(x.target))
    if isinstance(x, Compose):
        return Compose(mirror(x.left), mirror(x.right))
    if isinstance(x, OtimesPar):
        return OtimesPar(tuple(map(mirror, x.parts)))
    if isinstance(x, TriPar):
        return TriPar(tuple(map(mirror, reversed(x.parts))))
    a, b, c, d = map(mirror, x.corners)
    return InterchangerSubst(b, a, d, c)


def dual_shapes():
    """Every poset with n <= 5, then random and planted series-parallel posets
    with n = 8-256, each under a random and the middle-out relabelling."""
    for n in range(6):
        yield from all_posets(n)
    rng = random.Random(20261021)
    for n in (8, 16, 64, 256):
        for planted in (False, True):
            p = random_sp_poset(rng, n, planted)
            for tau in (rng.sample(range(n), n), middle_out(n)):
                yield act(tau, p)


def induces_zigzag(p: FinitePoset, quad) -> bool:
    """Whether the four elements' induced order is exactly a < b, c < b, c < d."""
    a, b, c, d = quad
    related = {(x, y) for x in quad for y in quad if p.lt(x, y)}
    return related == {(a, b), (c, b), (c, d)}


def alternating_nest(depth: int) -> str:
    """(ox x0 (tri x1 (ox x2 ...))) with `depth` parentheses; no level flattens."""
    heads = ("ox", "tri")
    opened = "".join(f"({heads[k % 2]} x{k} " for k in range(depth))
    return opened + f"x{depth}" + ")" * depth


# ---------------------------------------------------------------------------
# Tropical oracle

def oracle_chains(p: FinitePoset) -> list[tuple[int, ...]]:
    """Every nonempty strictly increasing element sequence, lexicographically.

    Each chain is extended by every pair leaving its last element, walked
    from an explicit stack, so long chains cost no recursion depth.
    """
    above = [[] for _ in range(p.size)]
    for i, j in p.pairs():
        above[i].append(j)
    out = []
    stack = [(e,) for e in reversed(range(p.size))]
    while stack:
        seq = stack.pop()
        out.append(seq)
        stack += [seq + (j,) for j in reversed(above[seq[-1]])]
    return out


def chain_sum_boxtimes(p: FinitePoset, values) -> Fraction:
    """Independent evaluation: max over the chains of the pair set."""
    if p.size == 0:
        return Fraction(0)
    return max(sum(values[e] for e in c) for c in oracle_chains(p))


def gantt_per_cell(plan, res: Fraction) -> str:
    """Independent Gantt chart: tests every cell's window against the task.

    Assumes the chart fits under the column cap.
    """
    n = len(plan.start)
    columns = int(max(1, -(-plan.makespan // res)))
    width = len(str(n - 1)) if n else 1
    lines = []
    for e in range(n):
        cells = []
        for col in range(columns):
            lo, hi = col * res, (col + 1) * res
            if plan.start[e] < hi and plan.finish[e] > lo:
                cells.append("#")
            elif plan.start[e] == plan.finish[e] and lo <= plan.start[e] < hi:
                cells.append("|")
            else:
                cells.append(".")
        lines.append(f"{e:>{width}} [{''.join(cells)}]")
    return "\n".join(lines)


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
