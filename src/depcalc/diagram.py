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

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import InvalidDiagram, InvalidPaths, MissingAssignment
from .polynomial import FinitePolynomial, boxtimes_poly, signature
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
from .tropical import boxtimes


# ---------------------------------------------------------------------------
# Polygraphs and diagrams

@dataclass(frozen=True)
class PartialPolygraph:
    types: tuple[str, ...]
    compat: frozenset[tuple[str, str]]  # symmetric, stored in both orientations
    generators: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...]

    def compatible(self, a: str, b: str) -> bool:
        return (a, b) in self.compat

    def gen_map(self) -> dict[str, tuple[tuple[str, ...], tuple[str, ...]]]:
        return {name: (src, tgt) for name, src, tgt in self.generators}

    def __post_init__(self):
        known = set(self.types)
        for name, src, tgt in self.generators:
            for t in src + tgt:
                if t not in known:
                    raise ValueError(f"generator {name!r} uses unknown type {t!r}")
            for boundary in (src, tgt):
                for a, b in zip(boundary, boundary[1:]):
                    if not self.compatible(a, b):
                        raise ValueError(
                            f"generator {name!r} boundary has incompatible "
                            f"neighbors ({a!r}, {b!r})"
                        )


def make_polygraph(
    types: Sequence[str],
    compat: Sequence[tuple[str, str]],
    generators: dict[str, tuple[Sequence[str], Sequence[str]]],
) -> PartialPolygraph:
    sym = frozenset(
        pair for a, b in compat for pair in ((str(a), str(b)), (str(b), str(a)))
    )
    gens = tuple(
        (name, tuple(src), tuple(tgt)) for name, (src, tgt) in sorted(generators.items())
    )
    return PartialPolygraph(tuple(types), sym, gens)


def total_polygraph(generators: dict[str, tuple[Sequence[str], Sequence[str]]],
                    types: Sequence[str] = ("w",)) -> PartialPolygraph:
    """Polygraph whose compatibility relation is total on the given types."""
    compat = [(a, b) for a in types for b in types]
    return make_polygraph(types, compat, generators)


@dataclass(frozen=True)
class GenCell:
    gen: str


@dataclass(frozen=True)
class IdCell:
    type: str


@dataclass(frozen=True)
class SwapCell:
    left: str
    right: str


Cell = Union[GenCell, IdCell, SwapCell]


@dataclass(frozen=True)
class StringDiagram:
    polygraph: PartialPolygraph
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    layers: tuple[tuple[Cell, ...], ...]


@dataclass(frozen=True)
class GenInstance:
    """A generator occurrence; ``element`` is its index in the edge poset."""

    element: int
    layer: int
    cell: int
    name: str


@dataclass(frozen=True)
class StageFailure:
    stage: int
    reason: str

    def __bool__(self) -> bool:
        return False


def _trace(diag: StringDiagram, check_compat: bool = False):
    """Walk the layers; returns (stage type lists, instances, wiring relations).

    Raises InvalidDiagram (with a ``stage`` attribute) on any structural
    mismatch; with check_compat also enforces stage validity under the
    polygraph's compatibility relation.
    """
    pg = diag.polygraph
    gens = pg.gen_map()

    def fail(stage: int, reason: str):
        err = InvalidDiagram(f"stage {stage}: {reason}")
        err.stage = stage
        return err

    def check_stage(stage: int, types: list[str]):
        if check_compat:
            for a, b in zip(types, types[1:]):
                if not pg.compatible(a, b):
                    raise fail(stage, f"types {a!r} and {b!r} are not compatible neighbors")

    cur_types = list(diag.inputs)
    cur_prov: list[tuple[int, int] | None] = [None] * len(cur_types)
    check_stage(0, cur_types)
    stages = [tuple(cur_types)]
    instances: list[GenInstance] = []
    relations: list[tuple[int, int]] = []

    for layer_idx, layer in enumerate(diag.layers):
        pos = 0
        new_types: list[str] = []
        new_prov: list[tuple[int, int] | None] = []
        for cell_idx, cell in enumerate(layer):
            if isinstance(cell, IdCell):
                if pos >= len(cur_types) or cur_types[pos] != cell.type:
                    raise fail(layer_idx, f"identity cell expects {cell.type!r} at wire {pos}")
                new_types.append(cell.type)
                new_prov.append(cur_prov[pos])
                pos += 1
            elif isinstance(cell, SwapCell):
                if pos + 1 >= len(cur_types) or (cur_types[pos], cur_types[pos + 1]) != (
                    cell.left,
                    cell.right,
                ):
                    raise fail(layer_idx, f"transposition mismatch at wire {pos}")
                if check_compat and not pg.compatible(cell.left, cell.right):
                    raise fail(layer_idx, f"transposition of incompatible types at wire {pos}")
                new_types += [cell.right, cell.left]
                new_prov += [cur_prov[pos + 1], cur_prov[pos]]
                pos += 2
            elif isinstance(cell, GenCell):
                if cell.gen not in gens:
                    raise fail(layer_idx, f"unknown generator {cell.gen!r}")
                src, tgt = gens[cell.gen]
                if tuple(cur_types[pos : pos + len(src)]) != src or pos + len(src) > len(
                    cur_types
                ):
                    raise fail(layer_idx, f"generator {cell.gen!r} input mismatch at wire {pos}")
                element = len(instances)
                for offset in range(len(src)):
                    producer = cur_prov[pos + offset]
                    if producer is not None:
                        relations.append((producer[0], element))
                instances.append(GenInstance(element, layer_idx, cell_idx, cell.gen))
                new_types += list(tgt)
                new_prov += [(element, port) for port in range(len(tgt))]
                pos += len(src)
            else:
                raise fail(layer_idx, f"unknown cell {cell!r}")
        if pos != len(cur_types):
            raise fail(layer_idx, f"layer consumed {pos} of {len(cur_types)} wires")
        cur_types, cur_prov = new_types, new_prov
        check_stage(layer_idx + 1, cur_types)
        stages.append(tuple(cur_types))

    if cur_types != list(diag.outputs):
        raise fail(len(diag.layers), f"final stage {cur_types!r} != outputs {list(diag.outputs)!r}")
    return stages, tuple(instances), relations


def validate_diagram(polygraph: PartialPolygraph, diag: StringDiagram):
    """True when every stage is valid; otherwise the first StageFailure."""
    if diag.polygraph != polygraph:
        probe = StringDiagram(polygraph, diag.inputs, diag.outputs, diag.layers)
    else:
        probe = diag
    try:
        _trace(probe, check_compat=True)
    except InvalidDiagram as err:
        return StageFailure(getattr(err, "stage", 0), str(err))
    return True


def edge_poset(diag: StringDiagram) -> tuple[FinitePoset, tuple[GenInstance, ...]]:
    """Dependency poset on generator instances, in (layer, position) order."""
    _, instances, relations = _trace(diag)
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

    unit = FinitePolynomial((1,))

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


@dataclass(frozen=True)
class Decoration:
    """Total assignment of algebra values to generator names."""

    assignment: dict

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


@dataclass(frozen=True)
class LawCheck:
    kind: str
    law: str
    passed: bool
    details: str


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
    on cyclic wiring or when a needed transposition is incompatible.
    """
    gens = polygraph.gen_map()
    n = len(nodes)
    for v, name in enumerate(nodes):
        if name not in gens:
            raise InvalidDiagram(f"unknown generator {name!r}")
    in_wires: list[dict[int, int]] = [dict() for _ in range(n)]
    out_wires: list[dict[int, int]] = [dict() for _ in range(n)]
    for w, (u, up, v, vp) in enumerate(wires):
        if not (0 <= up < len(gens[nodes[u]][1])) or not (0 <= vp < len(gens[nodes[v]][0])):
            raise InvalidDiagram(f"wire {w} references a missing port")
        if up in out_wires[u] or vp in in_wires[v]:
            raise InvalidDiagram(f"wire {w} reuses an already wired port")
        out_wires[u][up] = w
        in_wires[v][vp] = w
    for v, name in enumerate(nodes):
        src, tgt = gens[name]
        if len(in_wires[v]) != len(src) or len(out_wires[v]) != len(tgt):
            raise InvalidDiagram(f"node {v} ({name!r}) has unwired ports")

    # Longest-path layering, in one pass over a topological order (Kahn's
    # algorithm): a node is placed once every producer feeding it is.
    level = [0] * n
    waiting = [len(in_wires[v]) for v in range(n)]
    placed = [v for v in range(n) if not waiting[v]]
    for u in placed:
        for w in out_wires[u].values():
            v = wires[w][2]
            level[v] = max(level[v], level[u] + 1)
            waiting[v] -= 1
            if not waiting[v]:
                placed.append(v)
    if len(placed) < n:
        raise InvalidDiagram("wiring is cyclic")
    depth = 1 + max(level, default=-1) if n else 0

    wire_type = {w: gens[nodes[u]][1][up] for w, (u, up, _, _) in enumerate(wires)}
    layers: list[tuple[Cell, ...]] = []
    current: list[int] = []  # wire ids

    for k in range(depth):
        row_nodes = [v for v in range(n) if level[v] == k]
        consuming = [v for v in row_nodes if in_wires[v]]
        fresh = [v for v in row_nodes if not in_wires[v]]

        # Target wire order: pull each consuming node's inputs together at the
        # position of its earliest input, keeping passthrough wires in place.
        node_inputs = {
            v: [in_wires[v][port] for port in sorted(in_wires[v])] for v in consuming
        }
        owner = {w: v for v, ws in node_inputs.items() for w in ws}
        target: list[int] = []
        placed: set[int] = set()
        for w in current:
            if w in placed:
                continue
            v = owner.get(w)
            if v is None:
                target.append(w)
            else:
                target.extend(node_inputs[v])
                placed.update(node_inputs[v])

        layers.extend(_bubble_layers(polygraph, current, target, wire_type))
        current = list(target)

        cells: list[Cell] = []
        new_current: list[int] = []
        pos = 0
        while pos < len(current):
            w = current[pos]
            v = owner.get(w)
            if v is None:
                cells.append(IdCell(wire_type[w]))
                new_current.append(w)
                pos += 1
            else:
                cells.append(GenCell(nodes[v]))
                new_current.extend(out_wires[v][port] for port in sorted(out_wires[v]))
                pos += len(node_inputs[v])
        for v in fresh:
            cells.append(GenCell(nodes[v]))
            new_current.extend(out_wires[v][port] for port in sorted(out_wires[v]))
        layers.append(tuple(cells))
        current = new_current

    if current:
        raise InvalidDiagram("dangling wires after the final layer")
    result = StringDiagram(polygraph, (), (), tuple(layers))
    verdict = validate_diagram(polygraph, result)
    if verdict is not True:
        raise InvalidDiagram(f"layout produced an invalid diagram: {verdict.reason}")
    return result


def _bubble_layers(
    polygraph: PartialPolygraph,
    current: Sequence[int],
    target: Sequence[int],
    wire_type: dict[int, str],
) -> list[tuple[Cell, ...]]:
    """Adjacent-transposition layers turning one wire order into another."""
    rank = {w: k for k, w in enumerate(target)}
    work = list(current)
    layers: list[tuple[Cell, ...]] = []
    while work != list(target):
        cells: list[Cell] = []
        pos = 0
        moved = False
        while pos < len(work):
            if pos + 1 < len(work) and rank[work[pos]] > rank[work[pos + 1]]:
                a, b = work[pos], work[pos + 1]
                ta, tb = wire_type[a], wire_type[b]
                if not polygraph.compatible(ta, tb):
                    raise InvalidDiagram(
                        f"required transposition of {ta!r} and {tb!r} is blocked"
                    )
                cells.append(SwapCell(ta, tb))
                work[pos], work[pos + 1] = b, a
                pos += 2
                moved = True
            else:
                cells.append(IdCell(wire_type[work[pos]]))
                pos += 1
        if not moved:
            raise InvalidDiagram("bubble routing stalled")
        layers.append(tuple(cells))
    return layers


def diagram_realizing(p: FinitePoset) -> tuple[PartialPolygraph, StringDiagram]:
    """A diagram whose edge poset is p, one generator per element.

    Element i becomes a box with one input per incoming cover and one output
    per outgoing cover, wired along the covers; instance names are g<i>.
    """
    covers = transitive_reduction(p)
    in_deg = [0] * p.size
    out_deg = [0] * p.size
    for i, j in covers:
        out_deg[i] += 1
        in_deg[j] += 1
    generators = {
        f"g{e}": (["w"] * in_deg[e], ["w"] * out_deg[e]) for e in range(p.size)
    }
    pg = total_polygraph(generators)
    out_seen = [0] * p.size
    in_seen = [0] * p.size
    wires = []
    for i, j in covers:
        wires.append((i, out_seen[i], j, in_seen[j]))
        out_seen[i] += 1
        in_seen[j] += 1
    nodes = [f"g{e}" for e in range(p.size)]
    return pg, layout_dag(pg, nodes, wires)


# ---------------------------------------------------------------------------
# Serialization

def polygraph_from_json_dict(data: dict) -> PartialPolygraph:
    if not isinstance(data, dict) or "types" not in data or "generators" not in data:
        raise ValueError("polygraph JSON needs 'types' and 'generators'")
    if not isinstance(data["generators"], dict) or not all(
        isinstance(entry, dict) for entry in data["generators"].values()
    ):
        raise ValueError("'generators' must map names to objects with 'src' and 'tgt'")
    compat = [tuple(pair) for pair in data.get("compat", [])]
    generators = {
        str(name): (entry["src"], entry["tgt"]) for name, entry in data["generators"].items()
    }
    return make_polygraph([str(t) for t in data["types"]], compat, generators)


def diagram_from_json_dict(polygraph: PartialPolygraph, data: dict) -> StringDiagram:
    if not isinstance(data, dict):
        raise ValueError("diagram JSON must be an object")

    def parse_cell(entry: dict) -> Cell:
        if not isinstance(entry, dict) or len(entry) != 1:
            raise ValueError(f"bad cell {entry!r}")
        if "gen" in entry:
            return GenCell(str(entry["gen"]))
        if "id" in entry:
            return IdCell(str(entry["id"]))
        if "swap" in entry:
            left, right = entry["swap"]
            return SwapCell(str(left), str(right))
        raise ValueError(f"bad cell {entry!r}")

    layers = tuple(
        tuple(parse_cell(c) for c in layer) for layer in data.get("layers", [])
    )
    return StringDiagram(
        polygraph,
        tuple(str(t) for t in data.get("input", [])),
        tuple(str(t) for t in data.get("output", [])),
        layers,
    )
