"""Seeded input generators for the depcalc benchmark.

Everything here works on plain Python sets and tuples and never calls the
library, so the inputs (and the answers the oracle expects for them) do not
depend on the code under test.  Every generator takes a ``random.Random``
built from the run's seed; the same seed gives the same inputs.

Build trees are nested tuples:

* ``("v", label)``                a single element
* ``("zz", a, b, c, d)``          a planted zig-zag module: a < b, c < b, c < d
* ``("ox", left, right)``         disjoint union
* ``("tri", left, right)``        join: every left element below every right one
"""

from __future__ import annotations

import json
import random
from itertools import combinations

from oracle import close, has_zigzag

Tree = tuple


def rng_for(seed: int, *stream) -> random.Random:
    """Independent, reproducible stream for (seed, stream...)."""
    return random.Random(":".join(str(part) for part in (seed,) + stream))


# ---------------------------------------------------------------------------
# Build trees

def random_tree(rng: random.Random, items: list, ops=("ox", "tri")) -> Tree:
    """Random binary tree over the given leaves (labels or zz modules)."""
    nodes = [("v", item) if isinstance(item, int) else item for item in items]
    # Merge random adjacent pairs until one tree is left: every binary tree
    # shape is reachable and no recursion depth grows with the leaf count.
    while len(nodes) > 1:
        k = rng.randrange(len(nodes) - 1)
        nodes[k : k + 2] = [(rng.choice(ops), nodes[k], nodes[k + 1])]
    return nodes[0]


def sp_tree(rng: random.Random, n: int, planted: bool = False, labels=None) -> Tree:
    """Random series-parallel build tree on a shuffled labelling of 0..n-1.

    With ``planted`` one group of four leaves is a zig-zag module instead, so
    the poset is not expressible.  Passing ``labels`` (a permutation of
    0..n-1) takes the labelling from elsewhere and only the shape from rng.
    """
    labels = rng.sample(range(n), n) if labels is None else list(labels)
    if planted:
        module = ("zz",) + tuple(labels[:4])
        items = [module] + labels[4:]
        rng.shuffle(items)
        return random_tree(rng, items)
    return random_tree(rng, labels)


def chain_tree(rng: random.Random, labels: list[int]) -> Tree:
    return random_tree(rng, list(labels), ops=("tri",))


def antichain_tree(rng: random.Random, labels: list[int]) -> Tree:
    return random_tree(rng, list(labels), ops=("ox",))


def coarsen(rng: random.Random, tree: Tree, share: float) -> Tree:
    """The same build tree with each ``ox`` node flipped to ``tri`` at rate share."""
    kind = tree[0]
    if kind in ("v", "zz"):
        return tree
    left, right = coarsen(rng, tree[1], share), coarsen(rng, tree[2], share)
    if kind == "ox" and rng.random() < share:
        kind = "tri"
    return (kind, left, right)


def _walk(tree: Tree):
    """(elements, relation, minima, maxima, generating pairs) of a tree."""
    stack = [(tree, False)]
    out = []
    while stack:
        node, done = stack.pop()
        kind = node[0]
        if kind == "v":
            e = node[1]
            out.append(([e], set(), [e], [e], []))
        elif kind == "zz":
            a, b, c, d = node[1:]
            rel = {(a, b), (c, b), (c, d)}
            out.append(([a, b, c, d], rel, [a, c], [b, d], sorted(rel)))
        elif not done:
            stack.append((node, True))
            stack.append((node[2], False))
            stack.append((node[1], False))
        else:
            right = out.pop()
            left = out.pop()
            elems = left[0] + right[0]
            rel = left[1] | right[1]
            gens = left[4] + right[4]
            if kind == "ox":
                mins, maxs = left[2] + right[2], left[3] + right[3]
            else:
                rel |= {(x, y) for x in left[0] for y in right[0]}
                gens += [(x, y) for x in left[3] for y in right[2]]
                mins, maxs = left[2], right[3]
            out.append((elems, rel, mins, maxs, gens))
    return out[0]


def relation(tree: Tree) -> frozenset:
    """The strict order the tree denotes, as a closed set of pairs."""
    return frozenset(_walk(tree)[1])


def generating_pairs(tree: Tree) -> list[tuple[int, int]]:
    """Cover pairs of the tree's poset: closing them gives ``relation(tree)``."""
    return _walk(tree)[4]


def expression_text(tree: Tree) -> str:
    """The s-expression of an expressible tree, e.g. ``(tri x0 (ox x1 x2))``."""
    if tree[0] == "v":
        return f"x{tree[1]}"
    if tree[0] == "zz":
        raise ValueError("a zig-zag module has no expression")
    return f"({tree[0]} {expression_text(tree[1])} {expression_text(tree[2])})"


def runtimes(rng: random.Random, n: int) -> list[int]:
    return [rng.randint(0, 9) for _ in range(n)]


# ---------------------------------------------------------------------------
# Small relation helpers for derive-sweep

def random_sub_relation(rng: random.Random, n: int, rel: frozenset) -> frozenset:
    """Closure of a random subset of rel; always included in rel."""
    return close(n, [pair for pair in sorted(rel) if rng.random() < 0.6])


def random_super_relation(rng: random.Random, n: int, rel: frozenset) -> frozenset | None:
    """rel plus one or two random pairs, closed; None if that makes a cycle
    or a zig-zag."""
    extra = [(i, j) for i, j in combinations(range(n), 2)]
    extra = [(i, j) if rng.random() < 0.5 else (j, i) for i, j in extra]
    rng.shuffle(extra)
    grown = set(rel) | set(extra[: rng.randint(1, 2)])
    closed = close(n, grown)
    if any((j, i) in closed for i, j in closed) or has_zigzag(n, closed):
        return None
    return closed


# ---------------------------------------------------------------------------
# Layered string diagrams over the one-type polygraph {"w"}

GEN_SHAPES = [(0, 1), (1, 1), (1, 2), (2, 1), (1, 0), (2, 2), (0, 2), (2, 0)]


def random_diagram(rng: random.Random, layers: int, max_wires: int = 6,
                   max_instances: int | None = None):
    """A valid layered diagram built cell by cell, with its expected edge poset.

    Returns (polygraph_json, diagram_json, instance_names, relation) where
    instance k is the k-th generator cell in (layer, cell) order and relation
    is the closed dependency order on instance indices.
    """
    shapes = [(0, 1)] + rng.sample(GEN_SHAPES[1:], 4)
    generators = {f"g{k}": shape for k, shape in enumerate(shapes)}
    wires: list[int | None] = [None] * rng.randint(0, 2)
    inputs = len(wires)
    out_layers = []
    names: list[str] = []
    direct: set[tuple[int, int]] = set()
    for _ in range(layers):
        cells, nxt, pos = [], [], 0
        while pos < len(wires) or (not cells and not wires):
            full = max_instances is not None and len(names) >= max_instances
            options = []
            if pos < len(wires):
                options += ["id", "id"]
            if pos + 1 < len(wires):
                options.append("swap")
            if not full:
                options += [g for g, (a, b) in generators.items()
                            if a and pos + a <= len(wires) and len(wires) - a + b <= max_wires]
            if not options and not wires:
                options = ["g0"] if not full else []
            if not options:
                break
            pick = rng.choice(options)
            if pick == "id":
                cells.append({"id": "w"})
                nxt.append(wires[pos])
                pos += 1
            elif pick == "swap":
                cells.append({"swap": ["w", "w"]})
                nxt += [wires[pos + 1], wires[pos]]
                pos += 2
            else:
                a, b = generators[pick]
                element = len(names)
                names.append(pick)
                direct.update((w, element) for w in wires[pos : pos + a] if w is not None)
                cells.append({"gen": pick})
                nxt += [element] * b
                pos += a
        if pos < len(wires):  # pad the rest of the layer with identities
            cells += [{"id": "w"}] * (len(wires) - pos)
            nxt += wires[pos:]
        # Fresh sources may appear at the right edge of any layer.
        if len(nxt) < max_wires and rng.random() < 0.5 and not (
            max_instances is not None and len(names) >= max_instances
        ):
            names.append("g0")
            cells.append({"gen": "g0"})
            nxt.append(len(names) - 1)
        if not cells:
            break
        out_layers.append(cells)
        wires = nxt
    polygraph = {
        "types": ["w"],
        "compat": [["w", "w"]],
        "generators": {g: {"src": ["w"] * a, "tgt": ["w"] * b}
                       for g, (a, b) in generators.items()},
    }
    diagram = {"input": ["w"] * inputs, "output": ["w"] * len(wires), "layers": out_layers}
    return polygraph, diagram, names, close(len(names), direct)


def dumps(value) -> str:
    """Canonical JSON text for generated files (byte-identical per seed)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))
