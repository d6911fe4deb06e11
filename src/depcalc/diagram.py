"""Layered string diagrams over partial polygraphs, and their decoration.

Diagrams are stored as explicit layers of cells (generator applications,
identity wires, adjacent transpositions), so "valid at each stage" is a
direct check: every inter-layer list of vertex types must be consecutive
under the polygraph's compatibility relation and must match what the cells
consume and emit.  A small DAG importer produces a layering from a wiring
list by topological scheduling, inserting bubble-routed transpositions, and
fails when a required swap is blocked by compatibility.

The edge poset of a diagram has one element per generator instance, indexed
by (layer, position), and is generated by output-to-input wiring through
identities and transpositions.  Decoration evaluates any dependence algebra
over that poset; the tropical and polynomial algebras are provided.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count, islice
from operator import gt
from typing import Sequence, Union

from .errors import InvalidDiagram, InvalidPaths, MissingAssignment
from .polynomial import IDENTITY, FinitePolynomial, boxtimes_poly, signature
from .poset import (
    FinitePoset,
    antichain,
    chain,
    from_pairs,
    is_inclusion,
    join,
    linear_extension,
    substitute,
    transitive_reduction,
)
from .record import Record
from .tropical import boxtimes


# ---------------------------------------------------------------------------
# Polygraphs and diagrams

class PartialPolygraph(Record):
    """Vertex types, their compatibility relation and the generators.

    ``compat`` is symmetric, stored in both orientations.
    """

    __match_args__ = ("types", "compat", "generators")
    __slots__ = (*__match_args__, "_total")

    def __init__(self, types: tuple[str, ...], compat: frozenset[tuple[str, str]],
                 generators: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...]):
        known = set(types)
        for name, src, tgt in generators:
            for t in src + tgt:
                if t not in known:
                    raise ValueError(f"generator {name!r} uses unknown type {t!r}")
            for boundary in (src, tgt):
                for a, b in zip(boundary, boundary[1:]):
                    if (a, b) not in compat:
                        raise ValueError(
                            f"generator {name!r} boundary has incompatible "
                            f"neighbors ({a!r}, {b!r})"
                        )
        super().__init__(types, compat, generators)

    def compatible(self, a: str, b: str) -> bool:
        return (a, b) in self.compat

    @property
    def total(self) -> bool:
        """Whether every pair of declared types is compatible; computed once."""
        try:
            return self._total
        except AttributeError:
            total = all((a, b) in self.compat for a in self.types for b in self.types)
            _polygraph_total(self, total)
            return total

    def gen_map(self) -> dict[str, tuple[tuple[str, ...], tuple[str, ...]]]:
        return {name: (src, tgt) for name, src, tgt in self.generators}


_polygraph_total = PartialPolygraph._total.__set__


def make_polygraph(
    types: Sequence[str],
    compat: Sequence[tuple[str, str]],
    generators: dict[str, tuple[Sequence[str], Sequence[str]]],
) -> PartialPolygraph:
    known = set(types)
    pairs = [(str(a), str(b)) for a, b in compat]
    for pair in pairs:
        for t in pair:
            if t not in known:
                raise ValueError(f"compat pair {pair!r} uses unknown type {t!r}")
    sym = frozenset(pairs + [(b, a) for a, b in pairs])
    gens = tuple(
        (name, tuple(src), tuple(tgt)) for name, (src, tgt) in sorted(generators.items())
    )
    return PartialPolygraph(tuple(types), sym, gens)


def total_polygraph(generators: dict[str, tuple[Sequence[str], Sequence[str]]],
                    types: Sequence[str] = ("w",)) -> PartialPolygraph:
    """Polygraph whose compatibility relation is total on the given types."""
    compat = [(a, b) for a in types for b in types]
    return make_polygraph(types, compat, generators)


class GenCell(Record):
    __slots__ = ("gen",)


class IdCell(Record):
    __slots__ = ("type",)


class SwapCell(Record):
    __slots__ = ("left", "right")


Cell = Union[GenCell, IdCell, SwapCell]


class StringDiagram(Record):
    __slots__ = ("polygraph", "inputs", "outputs", "layers")


class GenInstance(Record):
    """A generator occurrence; ``element`` is its index in the edge poset."""

    __slots__ = ("element", "layer", "cell", "name")


class StageFailure(Record):
    __slots__ = ("stage", "reason")

    def __bool__(self) -> bool:
        return False


def _trace(diag: StringDiagram, check_compat: bool = False):
    """Walk the layers; returns (generator instances, wiring relations).

    Raises InvalidDiagram (with a ``stage`` attribute) on any structural
    mismatch; with check_compat also enforces stage validity under the
    polygraph's compatibility relation.
    """
    pg = diag.polygraph
    gens = pg.gen_map()
    compat = pg.compat
    # Under a total relation only a stage holding an undeclared type can fail.
    declared = frozenset(pg.types) if check_compat and pg.total else frozenset()

    def check_stage(stage: int, types: list[str]):
        if check_compat and not (declared and declared.issuperset(types)):
            for a, b in zip(types, types[1:]):
                if (a, b) not in compat:
                    raise InvalidDiagram(f"types {a!r} and {b!r} are not compatible neighbors", stage)

    cur_types = list(diag.inputs)
    cur_prov: list[int | None] = [None] * len(cur_types)  # producing instance
    check_stage(0, cur_types)
    instances: list[GenInstance] = []
    relations: list[tuple[int, int]] = []

    for layer_idx, layer in enumerate(diag.layers):
        width = len(cur_types)
        pos = 0
        new_types: list[str] = []
        new_prov: list[int | None] = []
        for cell_idx, cell in enumerate(layer):
            kind = type(cell)
            if kind is IdCell:
                if pos >= width or cur_types[pos] != cell.type:
                    raise InvalidDiagram(f"identity cell expects {cell.type!r} at wire {pos}", layer_idx)
                new_types.append(cell.type)
                new_prov.append(cur_prov[pos])
                pos += 1
            elif kind is SwapCell:
                left, right = cell.left, cell.right
                # The stage check has already passed (left, right) as neighbors.
                if pos + 1 >= width or cur_types[pos] != left or cur_types[pos + 1] != right:
                    raise InvalidDiagram(f"transposition mismatch at wire {pos}", layer_idx)
                new_types += (right, left)
                new_prov += (cur_prov[pos + 1], cur_prov[pos])
                pos += 2
            elif kind is GenCell:
                if cell.gen not in gens:
                    raise InvalidDiagram(f"unknown generator {cell.gen!r}", layer_idx)
                src, tgt = gens[cell.gen]
                end = pos + len(src)
                if end > width or tuple(cur_types[pos:end]) != src:
                    raise InvalidDiagram(f"generator {cell.gen!r} input mismatch at wire {pos}", layer_idx)
                element = len(instances)
                for producer in cur_prov[pos:end]:
                    if producer is not None:
                        relations.append((producer, element))
                instances.append(GenInstance(element, layer_idx, cell_idx, cell.gen))
                new_types += tgt
                new_prov += [element] * len(tgt)
                pos = end
            else:
                raise InvalidDiagram(f"unknown cell {cell!r}", layer_idx)
        if pos != width:
            raise InvalidDiagram(f"layer consumed {pos} of {width} wires", layer_idx)
        cur_types, cur_prov = new_types, new_prov
        check_stage(layer_idx + 1, cur_types)

    if cur_types != list(diag.outputs):
        raise InvalidDiagram(f"final stage {cur_types!r} != outputs {list(diag.outputs)!r}", len(diag.layers))
    return tuple(instances), relations


def validate_diagram(polygraph: PartialPolygraph, diag: StringDiagram):
    """True when every stage is valid; otherwise the first StageFailure."""
    if diag.polygraph != polygraph:
        probe = StringDiagram(polygraph, diag.inputs, diag.outputs, diag.layers)
    else:
        probe = diag
    try:
        _trace(probe, check_compat=True)
    except InvalidDiagram as err:
        return StageFailure(err.stage, err.reason)
    return True


def edge_poset(diag: StringDiagram) -> tuple[FinitePoset, tuple[GenInstance, ...]]:
    """Dependency poset on generator instances, in (layer, position) order."""
    instances, relations = _trace(diag)
    return from_pairs(len(instances), relations), instances


# ---------------------------------------------------------------------------
# Dependence algebras and decoration

class TropicalAlgebra:
    """Runtimes under max/plus; box is the critical-path value."""

    unit = Fraction(0)

    def box(self, p: FinitePoset, values: Sequence[Fraction]) -> Fraction:
        return boxtimes(p, list(values))

    def holds(self, source: Fraction, target: Fraction) -> bool:
        return source <= target

    def equal(self, a: Fraction, b: Fraction) -> bool:
        return a == b


class PolynomialAlgebra:
    """Finite polynomials under the pairwise tensor and substitution."""

    unit = IDENTITY

    def box(self, p: FinitePoset, values: Sequence[FinitePolynomial]) -> FinitePolynomial:
        return boxtimes_poly(p, list(values), linear_extension(p))

    def holds(self, source: FinitePolynomial, target: FinitePolynomial) -> bool:
        # A morphism exists iff every source position has some target position
        # whose directions can map back into it.
        return all(
            any(td == 0 or sd > 0 for td in target.directions) for sd in source.directions
        )

    def equal(self, a: FinitePolynomial, b: FinitePolynomial) -> bool:
        return signature(a) == signature(b)


class Decoration(Record):
    """Total assignment of algebra values to generator names."""

    __slots__ = ("assignment",)

    def value(self, name: str):
        if name not in self.assignment:
            raise MissingAssignment(f"no value assigned to generator {name!r}")
        return self.assignment[name]


def decorate(diag: StringDiagram, decoration: Decoration, algebra) -> object:
    """Algebra value of a diagram: box over its edge poset."""
    p, instances = edge_poset(diag)
    values = [decoration.value(inst.name) for inst in instances]
    return algebra.box(p, values)


def path_decoration(
    polygraph: PartialPolygraph,
    decoration: Decoration,
    algebra,
    paths: Sequence[Sequence[str]],
) -> object:
    """Value of a disjoint union of composable single-wire generator paths."""
    gens = polygraph.gen_map()
    for path in paths:
        if not path:
            raise InvalidPaths("empty path")
        for name in path:
            if name not in gens:
                raise InvalidPaths(f"unknown generator {name!r}")
            src, tgt = gens[name]
            if len(src) != 1 or len(tgt) != 1:
                raise InvalidPaths(f"generator {name!r} is not single-input single-output")
        for first, second in zip(path, path[1:]):
            if gens[first][1] != gens[second][0]:
                raise InvalidPaths(f"{first!r} and {second!r} are not composable")
    shape = substitute(antichain(len(paths)), [chain(len(path)) for path in paths])
    values = [decoration.value(name) for path in paths for name in path]
    return algebra.box(shape, values)


# ---------------------------------------------------------------------------
# Diagram combination and the decoration laws

def tensor_diagrams(d1: StringDiagram, d2: StringDiagram) -> StringDiagram:
    """Side-by-side juxtaposition; shorter diagrams are padded with identities."""
    if d1.polygraph != d2.polygraph:
        raise InvalidDiagram("tensor requires a shared polygraph")
    depth = max(len(d1.layers), len(d2.layers))

    def padded(d: StringDiagram) -> list[tuple[Cell, ...]]:
        layers = list(d.layers)
        pad = tuple(IdCell(t) for t in d.outputs)
        while len(layers) < depth:
            layers.append(pad)
        return layers

    combined = tuple(a + b for a, b in zip(padded(d1), padded(d2)))
    return StringDiagram(
        d1.polygraph, d1.inputs + d2.inputs, d1.outputs + d2.outputs, combined
    )


def compose_diagrams(first: StringDiagram, second: StringDiagram) -> StringDiagram:
    """Run ``first``, then ``second``; boundaries must match exactly."""
    if first.polygraph != second.polygraph:
        raise InvalidDiagram("composition requires a shared polygraph")
    if first.outputs != second.inputs:
        raise InvalidDiagram(
            f"boundary mismatch: {first.outputs!r} then {second.inputs!r}"
        )
    return StringDiagram(
        first.polygraph, first.inputs, second.outputs, first.layers + second.layers
    )


class LawCheck(Record):
    __slots__ = ("kind", "law", "passed", "details")


def check_decoration_laws(
    polygraph: PartialPolygraph,
    decoration: Decoration,
    algebra,
    samples: Sequence[tuple],
) -> list[LawCheck]:
    """Evaluate the decoration laws on sample diagram pairs.

    Samples are ("tensor", d1, d2), ("compose", first, second), or
    ("interchange", f, f2, g, g2); failures land in the report, never raise.
    """
    report: list[LawCheck] = []
    for sample in samples:
        kind = sample[0]
        if kind == "tensor":
            _, d1, d2 = sample
            v1, v2 = decorate(d1, decoration, algebra), decorate(d2, decoration, algebra)
            lhs = decorate(tensor_diagrams(d1, d2), decoration, algebra)
            rhs = algebra.box(antichain(2), [v1, v2])
            report.append(
                LawCheck("tensor", "productor", algebra.equal(lhs, rhs), f"{lhs} vs {rhs}")
            )
        elif kind == "compose":
            _, first, second = sample
            v_f = decorate(first, decoration, algebra)
            v_g = decorate(second, decoration, algebra)
            whole = decorate(compose_diagrams(first, second), decoration, algebra)
            bound = algebra.box(chain(2), [v_g, v_f])
            report.append(
                LawCheck(
                    "compose", "compositor", algebra.holds(whole, bound), f"{whole} -> {bound}"
                )
            )
            p_first, _ = edge_poset(first)
            p_second, _ = edge_poset(second)
            p_whole, _ = edge_poset(compose_diagrams(first, second))
            ok = is_inclusion(p_whole, join(p_first, p_second))
            report.append(
                LawCheck("compose", "compositor-poset", ok, "edge poset within the join")
            )
        elif kind == "interchange":
            _, f, f2, g, g2 = sample
            d = {name: decorate(diag, decoration, algebra) for name, diag in
                 (("f", f), ("f2", f2), ("g", g), ("g2", g2))}
            top = algebra.box(
                chain(2),
                [
                    decorate(tensor_diagrams(g, g2), decoration, algebra),
                    decorate(tensor_diagrams(f, f2), decoration, algebra),
                ],
            )
            bottom = algebra.box(
                chain(2),
                [
                    algebra.box(antichain(2), [d["g"], d["g2"]]),
                    algebra.box(antichain(2), [d["f"], d["f2"]]),
                ],
            )
            report.append(
                LawCheck(
                    "interchange",
                    "interchange",
                    algebra.equal(top, bottom),
                    f"{top} vs {bottom}",
                )
            )
        else:
            report.append(LawCheck(str(kind), "unknown", False, "unrecognized sample kind"))
    return report


# ---------------------------------------------------------------------------
# DAG import: layering by topological scheduling with bubble-routed swaps

def layout_dag(
    polygraph: PartialPolygraph,
    nodes: Sequence[str],
    wires: Sequence[tuple[int, int, int, int]],
) -> StringDiagram:
    """Layer a closed wiring (src_node, src_port, dst_node, dst_port) list.

    Every generator port must be wired exactly once; fails with InvalidDiagram
    on cyclic wiring or when a needed transposition is incompatible.  Each
    distinct cell is built once and shared, so the layout costs a few steps
    per emitted cell; its result is still checked by validate_diagram.
    """
    gens = polygraph.gen_map()
    n = len(nodes)
    for name in nodes:
        if name not in gens:
            raise InvalidDiagram(f"unknown generator {name!r}")
    # The wire id at each input and output port of each node, by port.
    ins: list[list[int | None]] = [[None] * len(gens[name][0]) for name in nodes]
    outs: list[list[int | None]] = [[None] * len(gens[name][1]) for name in nodes]
    for w, (u, up, v, vp) in enumerate(wires):
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidDiagram(f"wire {w} references a missing node")
        if not (0 <= up < len(outs[u])) or not (0 <= vp < len(ins[v])):
            raise InvalidDiagram(f"wire {w} references a missing port")
        if outs[u][up] is not None or ins[v][vp] is not None:
            raise InvalidDiagram(f"wire {w} reuses an already wired port")
        outs[u][up] = ins[v][vp] = w
    for v, name in enumerate(nodes):
        if None in ins[v] or None in outs[v]:
            raise InvalidDiagram(f"node {v} ({name!r}) has unwired ports")
    consumer = [v for _, _, v, _ in wires]

    # Longest-path layering, in one pass over a topological order (Kahn's
    # algorithm): a node is placed once every producer feeding it is.
    level = [0] * n
    waiting = [len(ws) for ws in ins]
    placed = [v for v in range(n) if not waiting[v]]
    for u in placed:
        for w in outs[u]:
            v = consumer[w]
            level[v] = max(level[v], level[u] + 1)
            waiting[v] -= 1
            if not waiting[v]:
                placed.append(v)
    if len(placed) < n:
        raise InvalidDiagram("wiring is cyclic")
    rows: list[list[int]] = [[] for _ in range(1 + max(level, default=-1))]
    for v in range(n):
        rows[level[v]].append(v)

    gen_cells = {name: GenCell(name) for name in gens}
    id_cells = {t: IdCell(t) for t in polygraph.types}
    wire_cell = [id_cells[gens[nodes[u]][1][up]] for u, up, _, _ in wires]
    swaps: dict[tuple[str, str], SwapCell] = {}
    rank = [0] * len(wires)
    pulled = [False] * n
    layers: list[tuple[Cell, ...]] = []
    current: list[int] = []  # wire ids

    for k, row in enumerate(rows):
        # Target wire order: pull each consuming node's inputs together at the
        # position of its earliest input, keeping passthrough wires in place.
        target: list[int] = []
        for w in current:
            v = consumer[w]
            if level[v] != k:
                target.append(w)
            elif not pulled[v]:
                target += ins[v]
                pulled[v] = True
        if target != current:
            for r, w in enumerate(target):
                rank[w] = r
            work = [rank[w] for w in current]
            layers += _bubble_layers(polygraph, work, [wire_cell[w] for w in target], swaps)

        cells: list[Cell] = []
        current = []
        for w in target:
            v = consumer[w]
            if level[v] != k:
                cells.append(wire_cell[w])
                current.append(w)
            elif w == ins[v][0]:  # the node's inputs follow, in port order
                cells.append(gen_cells[nodes[v]])
                current += outs[v]
        for v in row:
            if not ins[v]:
                cells.append(gen_cells[nodes[v]])
                current += outs[v]
        layers.append(tuple(cells))

    if current:
        raise InvalidDiagram("dangling wires after the final layer")
    result = StringDiagram(polygraph, (), (), tuple(layers))
    verdict = validate_diagram(polygraph, result)
    if verdict is not True:
        raise InvalidDiagram(f"layout produced an invalid diagram: stage {verdict.stage}: "
                             f"{verdict.reason}")
    return result


def _bubble_layers(
    polygraph: PartialPolygraph,
    work: list[int],
    ids: list[IdCell],
    swaps: dict[tuple[str, str], SwapCell],
) -> list[tuple[Cell, ...]]:
    """Adjacent-transposition layers sorting the wire ranks ``work`` in place.

    Each layer swaps every descent that does not overlap the swap to its left.
    ``ids[r]`` is the identity cell of rank r; ``swaps`` maps each type pair
    found compatible to its one transposition cell.
    """
    goal = list(range(len(work)))
    layers: list[tuple[Cell, ...]] = []
    while work != goal:
        descents = list(compress(count(), map(gt, work, islice(work, 1, None))))
        if not descents:
            raise InvalidDiagram("bubble routing stalled")
        cells: list[Cell | None] = list(map(ids.__getitem__, work))
        for i in descents:
            if cells[i] is None:  # wire i moved in the swap to its left
                continue
            a, b = work[i], work[i + 1]
            pair = ids[a].type, ids[b].type
            swap = swaps.get(pair)
            if swap is None:
                if not polygraph.compatible(*pair):
                    raise InvalidDiagram(
                        f"required transposition of {pair[0]!r} and {pair[1]!r} is blocked"
                    )
                swap = swaps[pair] = SwapCell(*pair)
            work[i], work[i + 1] = b, a
            cells[i], cells[i + 1] = swap, None
        layers.append(tuple(filter(None, cells)))  # drop the slots swaps took
    return layers


def diagram_realizing(p: FinitePoset) -> tuple[PartialPolygraph, StringDiagram]:
    """A diagram whose edge poset is p, one generator per element.

    Element i becomes a box with one input per incoming cover and one output
    per outgoing cover, wired along the covers; instance names are g<i>.
    """
    in_deg = [0] * p.size
    out_deg = [0] * p.size
    wires = []
    for i, j in transitive_reduction(p):
        wires.append((i, out_deg[i], j, in_deg[j]))
        out_deg[i] += 1
        in_deg[j] += 1
    nodes = [f"g{e}" for e in range(p.size)]
    pg = total_polygraph(
        {name: (["w"] * in_deg[e], ["w"] * out_deg[e]) for e, name in enumerate(nodes)}
    )
    return pg, layout_dag(pg, nodes, wires)


# ---------------------------------------------------------------------------
# Serialization

def _json_list(value, what: str, length: int | None = None) -> list:
    """``value`` if it is a JSON list (of ``length`` entries), else a one-line error."""
    if not isinstance(value, list) or length is not None and len(value) != length:
        entries = "" if length is None else f" of {length} entries"
        raise ValueError(f"{what} must be a list{entries}, got {value!r}")
    return value


def _json_name(value, what: str) -> str:
    """``value`` if it is a JSON string (a type or generator name), else a one-line error."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value


def polygraph_from_json_dict(data: dict) -> PartialPolygraph:
    if not isinstance(data, dict) or "types" not in data or "generators" not in data:
        raise ValueError("polygraph JSON needs 'types' and 'generators'")
    if not isinstance(data["generators"], dict) or not all(
        isinstance(entry, dict) for entry in data["generators"].values()
    ):
        raise ValueError("'generators' must map names to objects with 'src' and 'tgt'")
    generators = {}
    for name, entry in data["generators"].items():
        if not all(isinstance(entry.get(key), list) for key in ("src", "tgt")):
            raise ValueError(f"generator {name!r} needs 'src' and 'tgt' lists of types")
        generators[_json_name(name, "a generator name")] = tuple(
            [_json_name(t, f"an entry of {key!r} of generator {name!r}") for t in entry[key]]
            for key in ("src", "tgt")
        )
    types = [_json_name(t, "an entry of 'types'") for t in _json_list(data["types"], "'types'")]
    compat = [tuple(_json_name(t, "an entry of a compat pair")
                    for t in _json_list(pair, "a compat pair", 2))
              for pair in _json_list(data.get("compat", []), "'compat'")]
    return make_polygraph(types, compat, generators)


def diagram_from_json_dict(polygraph: PartialPolygraph, data: dict) -> StringDiagram:
    if not isinstance(data, dict):
        raise ValueError("diagram JSON must be an object")

    def parse_cell(entry: dict) -> Cell:
        if not isinstance(entry, dict) or len(entry) != 1:
            raise ValueError(f"bad cell {entry!r}")
        if "gen" in entry:
            return GenCell(_json_name(entry["gen"], "'gen'"))
        if "id" in entry:
            return IdCell(_json_name(entry["id"], "'id'"))
        if "swap" in entry:
            return SwapCell(*(_json_name(t, "an entry of 'swap'")
                              for t in _json_list(entry["swap"], "'swap'", 2)))
        raise ValueError(f"bad cell {entry!r}")

    layers = tuple(
        tuple(map(parse_cell, _json_list(layer, "a layer")))
        for layer in _json_list(data.get("layers", []), "'layers'")
    )
    inputs, outputs = (
        tuple(_json_name(t, f"an entry of {key!r}") for t in _json_list(data.get(key, []), repr(key)))
        for key in ("input", "output")
    )
    return StringDiagram(polygraph, inputs, outputs, layers)
