"""Design rules of the source tree, checked on its syntax and its imports.

The library builds its own posets with the row algebra (substitution,
relabeling, induced sub-posets, row masks); ``from_pairs`` closes only
relations that come from outside it.  Derivation reads the normal-form terms
only, never the poset splits that ``decompose`` runs on.  Every value class is
its field list on the one ``Record`` base.  Only the two derivation walks of
``structure_maps`` and the guarded ``enumerate_posets`` still recurse;
``normalize`` and the parser do not, and one walk gives the linear extensions.
Chains and full embeddings are test oracles, not library functions.  Posets
carry their covers, which one private function searches for only where a poset
was built without them.  Recognition is ``decompose`` alone: it scans each
prime part in place, on the poset's own masks, through the one zig-zag scan;
it copies no part into an induced sub-poset, ``find_z`` only reads its
obstruction, and nothing in the library calls ``find_z``.  Both of its splits
are the one component search, ``components``: over the comparability masks for
a disjoint union, over their complement for a join.  The polynomial comparitor
is the interchanger at unit corners, with no lens of its own.  Importing the
package generates no code, and loads every layer.  The traced benchmark names
only functions and memo caches the library has.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from types import MemberDescriptorType

import depcalc
from depcalc import record

SOURCE = Path(depcalc.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def _tree(module: str) -> ast.Module:
    path = SOURCE / f"{module}.py"
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


#: Where ``from_pairs`` may be called: (module, enclosing function or the
#: module-level name assigned).
FROM_PAIRS_CALLERS = {
    ("poset", "from_json_dict"),  # poset JSON
    ("diagram", "edge_poset"),  # diagram wiring
    ("expressible", "ZIGZAG"),  # the zig-zag literal
}


def _callers(name: str, module: str, tree: ast.Module) -> list[tuple[str, str]]:
    """(module, enclosing function or module-level name) of each call to ``name``."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        elif isinstance(node, ast.Assign) and scope == "<module>":
            scope = ",".join(t.id for t in node.targets if isinstance(t, ast.Name))
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == name:
                found.append((module, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_from_pairs_is_called_only_at_input_boundaries():
    callers = []
    for path in sorted(SOURCE.glob("*.py")):
        callers += _callers("from_pairs", path.stem, _tree(path.stem))
    assert set(callers) == FROM_PAIRS_CALLERS
    assert len(callers) == len(FROM_PAIRS_CALLERS)


def _two_ended_searches(tree: ast.Module) -> set[str]:
    """Functions that take both the least bit (``m & -m``) and the greatest
    (``m.bit_length()``) of one mask ``m``: the greedy cover search."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        least, greatest = set(), set()
        for inner in ast.walk(node):
            if (isinstance(inner, ast.BinOp) and isinstance(inner.op, ast.BitAnd)
                    and isinstance(inner.left, ast.Name)
                    and isinstance(inner.right, ast.UnaryOp)
                    and isinstance(inner.right.op, ast.USub)
                    and isinstance(inner.right.operand, ast.Name)
                    and inner.right.operand.id == inner.left.id):
                least.add(inner.left.id)
            elif (isinstance(inner, ast.Call) and isinstance(inner.func, ast.Attribute)
                    and inner.func.attr == "bit_length" and isinstance(inner.func.value, ast.Name)):
                greatest.add(inner.func.value.id)
        if least & greatest:
            found.add(node.name)
    return found


def test_covers_are_searched_for_in_one_place_on_first_read():
    # Posets carry their covers from the constructors; only a poset built
    # without them (``induced``, a bare ``FinitePoset``) searches, once.
    searches, callers = [], []
    for path in sorted(SOURCE.glob("*.py")):
        tree = _tree(path.stem)
        searches += [(path.stem, name) for name in _two_ended_searches(tree)]
        callers += _callers("_search_covers", path.stem, tree)
    assert searches == [("poset", "_search_covers")]
    assert callers == [("poset", "covers")]
    assert not hasattr(depcalc.poset, "cover_masks")


def test_prime_parts_are_scanned_in_place():
    tree = _tree("expressible")
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert "induced" not in imported
    whole, scans = [], []
    for path in sorted(SOURCE.glob("*.py")):
        tree = _tree(path.stem)
        whole += _callers("find_z", path.stem, tree)
        scans += _callers("_least_zigzag", path.stem, tree)
    assert whole == []
    assert scans == [("expressible", "normal_form")]


def test_both_splits_are_one_component_search():
    # A disjoint union splits the comparability graph into its components, a
    # join splits the complement: ``normal_form`` pairs one ``components``
    # call with each product, and no second split search is left.
    tree = _tree("expressible")
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "series_factors" not in defined
    assert _callers("components", "expressible", tree) == [("expressible", "normal_form")] * 2
    paired = sorted(
        other.id
        for node in ast.walk(tree) if isinstance(node, ast.Tuple)
        and any(isinstance(item, ast.Call) and getattr(item.func, "id", None) == "components"
                for item in node.elts)
        for other in node.elts if isinstance(other, ast.Name))
    assert paired == ["Otimes", "Tri"]


def test_the_comparitor_is_the_interchanger_at_unit_corners():
    (comparitor,) = [node for node in _tree("polynomial").body
                     if isinstance(node, ast.FunctionDef) and node.name == "comparitor"]
    called = {node.func.id for node in ast.walk(comparitor)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "interchanger" in called
    loops = (ast.For, ast.While, ast.comprehension)
    assert not any(isinstance(node, loops) for node in ast.walk(comparitor))


#: Poset splits that ``structure_maps`` must not import: its terms hold them.
SPLITS = {"comparability_graph", "components", "top_split", "series_factors"}


def test_structure_maps_imports_no_poset_split():
    named = set()
    for node in ast.walk(_tree("structure_maps")):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            named |= {alias.name.rpartition(".")[2] for alias in node.names}
        elif isinstance(node, ast.Attribute):  # e.g. poset.components
            named.add(node.attr)
    assert not named & SPLITS


#: Layers the benchmark harness reads from ``sys.modules`` right after
#: ``import depcalc``, so the package must not load them lazily.
LAYERS = ("poset", "expression", "expressible", "structure_maps", "tropical", "operad",
          "polynomial", "diagram")


def test_import_generates_no_code_and_loads_every_layer():
    # A fresh interpreter, as every CLI process starts: the record classes are
    # plain __slots__ classes, so nothing pulls in the dataclass machinery.
    probe = "import depcalc, depcalc.cli, sys; print(*sorted(sys.modules))"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SOURCE.parent)),
                          check=True, timeout=60)
    loaded = set(done.stdout.split())
    assert not loaded & {"dataclasses", "inspect"}
    assert {f"depcalc.{layer}" for layer in LAYERS} <= loaded


def _records(cls=record.Record) -> list[type]:
    subclasses = cls.__subclasses__()
    return subclasses + [sub for c in subclasses for sub in _records(c)]


#: Every value class of the library.
RECORDS = {
    "Compose", "Decoration", "Equiv", "FinitePolynomial", "FinitePoset", "GenCell",
    "GenInstance", "IdCell", "InterchangerSubst", "LawCheck", "Obstruction", "OtimesPar",
    "PartialPolygraph", "PolyMorphism", "PolySignature", "Schedule", "StageFailure",
    "StringDiagram", "SwapCell", "TriPar", "_Par", "_Proof",
}

#: The records that check their fields, and the proof base, which adds a hash,
#: endpoints and a verdict outside them; no other record has an ``__init__``.
OWN_INIT = {"FinitePoset", "FinitePolynomial", "PartialPolygraph", "_Proof"}


def test_value_classes_are_their_field_lists_on_one_record_base():
    records = [cls for cls in _records() if cls.__module__.startswith("depcalc.")]
    assert sorted(cls.__name__ for cls in records) == sorted(RECORDS)
    for cls in records:
        assert cls.__match_args__ or cls.__name__ == "_Proof", cls
        for name in cls.__match_args__:
            assert isinstance(getattr(cls, name), MemberDescriptorType), (cls, name)
    assert {cls.__name__ for cls in records if "__init__" in cls.__dict__} == OWN_INIT
    assert not {"Single", "set_values", "setters"} & set(vars(record))


def _recursive(tree: ast.Module) -> set[str]:
    # A function recurses if its body, nested defs included, names it.
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(inner, ast.Name) and inner.id == node.name
                for statement in node.body for inner in ast.walk(statement))
    }


#: The functions of ``structure_maps`` that still recurse once per level.
RECURSIVE = {"_derive", "_restrict"}


def test_structure_maps_recurses_only_where_planned():
    # Proof text is read from a slot on each term, not from a per-call table.
    tree = _tree("structure_maps")
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    assert "_Texts" not in defined
    assert _recursive(tree) == RECURSIVE


def test_one_walk_for_linear_extensions_and_no_recursive_normalize():
    tree = _tree("poset")
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert "_kahn" not in defined and "heapq" not in imported
    # The parser reads on a stack too, so no expression depth is capped, and
    # boxtimes_poly counts what it builds instead of capping its factors' size.
    assert _recursive(_tree("expression")) == set()
    assert not hasattr(depcalc.expression, "MAX_NESTING")
    assert not hasattr(depcalc.polynomial, "BOX_MAX_POSITIONS")


def test_poset_recurses_only_in_the_guarded_enumeration():
    # Chains and full embeddings are test oracles: the library answers both
    # questions through boxtimes and find_z without enumerating.
    assert _recursive(_tree("poset")) == {"_enumerate"}
    assert not {"chains", "full_embeddings", "Embedding"} & set(vars(depcalc))


def test_the_traced_benchmark_names_what_the_library_has(monkeypatch):
    # perfbench/run.py is loaded by path, as it stands; its trace_specs
    # imports the benchmark's oracle from the same directory.
    bench = ROOT / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    for module, function, *_ in run.trace_specs():
        layer = importlib.import_module(f"depcalc.{module}")
        assert callable(getattr(layer, function, None)), (module, function)
    for _, module, function in run.CACHES:
        memo = getattr(importlib.import_module(f"depcalc.{module}"), function)
        assert callable(getattr(memo, "cache_info", None)), (module, function)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ratios = {metric["name"] for metric in declared["per_layer"]
              if metric["name"].endswith(".cache_hit_ratio")}
    assert ratios == {f"{name}.cache_hit_ratio" for name, _, _ in run.CACHES}
