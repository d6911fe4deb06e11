"""Fuzz gate for the command line's exit-code contract.

Every generated input must end in exit 0, 1 or 2, never in 70 (an internal
error) or an uncaught exception.  stderr never holds a traceback, exit 2
prints exactly one ``error:`` line and exit 1 at most one stderr line.

Each input starts as a well-formed document (poset, polynomial, polygraph,
diagram, assignment) or argument (runtimes, resolution, expression), so it
reaches the code past the loaders; one time in three one slot of it, or
the whole of it, is then swapped for a bool, float (NaN and infinities
included), string, null, list or object.  Posets also get cyclic and
out-of-range relations, and expression text nests up to 2,000 parentheses
deep, its heads a short pattern repeated.
Element counts are drawn from 0-64, at or just below ``MAX_ELEMENTS`` (with
relations among the first 64 elements only, so sparse), or past it.
Examples are derandomized by the profile ``conftest`` loads, so every run
draws the same inputs.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depcalc.cli import main
from depcalc.poset import MAX_ELEMENTS

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), 1e308, 0.5]),
    st.text(max_size=4),
)
json_values = st.recursive(
    junk,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=8,
)


@st.composite
def mangled(draw, doc):
    """``doc`` about two times in three, else with one node replaced by a JSON value.

    The node is found by descending from the root, two times in three into a
    child, so whole documents, top-level fields and inner entries all get hit.
    """
    if draw(st.sampled_from([True, True, False])):
        return doc
    return _mangle(draw, doc)


def _mangle(draw, node):
    keys = list(node) if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    if keys and draw(st.sampled_from([True, True, False])):
        key = draw(st.sampled_from(keys))
        copy = dict(node) if isinstance(node, dict) else list(node)
        copy[key] = _mangle(draw, node[key])
        return copy
    return draw(json_values)


@st.composite
def poset_json(draw, max_elements: int = 64):
    size = draw(st.sampled_from(["small"] * 4 + ["near_cap", "past_cap"] * 2))
    n = draw({
        "small": st.integers(0, max_elements),
        "near_cap": st.integers(MAX_ELEMENTS - 3, MAX_ELEMENTS),
        "past_cap": st.integers(MAX_ELEMENTS + 1, 1 << 40),
    }[size])
    top = min(n, max_elements) - 1
    pairs = []
    if top > 0:
        pair = st.tuples(st.integers(0, top), st.integers(0, top)).filter(lambda t: t[0] != t[1])
        pairs = [sorted(t) for t in draw(st.lists(pair, max_size=48))]
    flaw = draw(st.sampled_from(["none"] * 4 + ["cycle", "loop", "range", "negative"]))
    if flaw == "cycle" and pairs:
        pairs.append(pairs[0][::-1])
    elif flaw == "loop":
        pairs.append([0, 0])
    elif flaw == "range":
        pairs.append([0, n])
    elif flaw == "negative":
        pairs.append([-1, 0])
    return draw(mangled({"elements": n, "relations": pairs}))


def element_count(doc, default: int = 3) -> int:
    """The poset's element count when it is a small integer, else ``default``."""
    n = doc.get("elements") if isinstance(doc, dict) else None
    return n if type(n) is int and 0 <= n <= 64 else default


good_runtimes = st.sampled_from(["0", "1", "7", "2.5", "1/3", "0.1", "3/5"])
odd_runtimes = st.sampled_from(["1/0", "inf", "-1", "nan", "1e-9", "1e99", "", "x"])
bad_runtimes = st.one_of(odd_runtimes, odd_runtimes, st.text(alphabet="0123456789./-e", max_size=5))
runtime = st.one_of(good_runtimes, bad_runtimes)


@st.composite
def runtime_list(draw, n: int) -> str:
    values = draw(st.lists(good_runtimes, min_size=n, max_size=n))
    flaw = draw(st.sampled_from(["none", "value", "count"]))
    if flaw == "value" and values:
        values[draw(st.integers(0, n - 1))] = draw(bad_runtimes)
    elif flaw == "count":
        values.append("1")
    return ",".join(values)


@st.composite
def poly_json(draw):
    counts = draw(st.one_of(
        st.lists(st.integers(0, 3), min_size=1, max_size=12),
        st.lists(st.integers(0, 40), min_size=1, max_size=12),
        st.just([1] * 2048),
    ))
    return draw(mangled({"positions": counts}))


names = st.sampled_from(["a", "b", "c"])
types = st.sampled_from(["w", "v"])
boundary = st.lists(types, max_size=3)


@st.composite
def polygraph_json(draw):
    gens = draw(st.dictionaries(
        names, st.fixed_dictionaries({"src": boundary, "tgt": boundary}), max_size=3
    ))
    compat = [["w", "w"], ["w", "v"], ["v", "v"]]
    return draw(mangled({"types": ["w", "v"], "compat": compat, "generators": gens}))


@st.composite
def diagram_json(draw):
    cell = st.one_of(
        st.builds(lambda g: {"gen": g}, names),
        st.builds(lambda t: {"id": t}, types),
        st.builds(lambda a, b: {"swap": [a, b]}, types, types),
    )
    layers = draw(st.lists(st.lists(cell, min_size=1, max_size=3), max_size=4))
    return draw(mangled({"input": draw(boundary), "output": draw(boundary), "layers": layers}))


@st.composite
def nested_expression(draw):
    depth = draw(st.integers(0, 2000))
    heads = draw(st.lists(st.sampled_from(["ox", "tri"]), min_size=1, max_size=4))
    text = "".join(f"({heads[k % len(heads)]} x{k} " for k in range(depth)) + f"x{depth}"
    closing = draw(st.integers(max(depth - 1, 0), depth + 1))
    return text + ")" * closing


expressions = st.one_of(
    nested_expression(),
    st.text(alphabet="()oxtri x0123456789-", max_size=24),
)


def invoke(argv: list[str]) -> int:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    text = err.getvalue()
    assert code in (0, 1, 2), (argv, code, text)
    assert "Traceback" not in text
    if code == 2:
        assert text.startswith("error: ") and text.count("\n") == 1, text
    elif code == 1:
        assert text.count("\n") <= 1, text
    return code


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def dump(folder, name: str, value) -> str:
    path = folder / name
    path.write_text(json.dumps(value), encoding="utf-8")
    return str(path)


# Free-text values are passed as --option=value, so a value that starts with
# '-' is never read as an option (an argparse usage error is not under test).

@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    command=st.sampled_from(["check", "decompose", "derive", "derive-self", "intersect"]),
    fmt=st.sampled_from(["text", "json"]),
)
def test_poset_commands_keep_the_exit_contract(folder, data, command, fmt):
    p = dump(folder, "p.json", data.draw(poset_json()))
    q = dump(folder, "q.json", data.draw(poset_json())) if command in ("derive", "intersect") else p
    argv = {
        "derive": ["derive", "--source", p, "--target", q],
        "derive-self": ["derive", "--source", p, "--target", p],
        "intersect": ["intersect", p, q],
    }.get(command, [command, "--poset", p])
    invoke(argv + ["--format", fmt])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), fmt=st.sampled_from(["text", "json"]))
def test_tropical_keeps_the_exit_contract(folder, data, fmt):
    source = data.draw(poset_json())
    times = data.draw(runtime_list(element_count(source)))
    argv = ["tropical", "--poset", dump(folder, "p.json", source), f"--runtimes={times}",
            "--gantt", f"--resolution={data.draw(runtime)}", "--format", fmt]
    invoke(argv)


# expressible_covers builds one n-row witness per incomparable pair and raises
# SizeError past operad.MAX_COVER_BITS of (pairs + 1) * n^2 row bits.  Sixteen
# elements need at most 121 * 256 of them, so every draw here builds its covers.
@settings(max_examples=60, deadline=None)
@given(source=poset_json(max_elements=16), fmt=st.sampled_from(["text", "json"]))
def test_covers_keeps_the_exit_contract(folder, source, fmt):
    invoke(["covers", "--poset", dump(folder, "p.json", source), "--format", fmt])


@settings(max_examples=120, deadline=None)
@given(
    left=poly_json(),
    right=poly_json(),
    poset=poset_json(max_elements=3),
    op=st.sampled_from(["ox", "tri", "boxtimes"]),
    extension=st.one_of(st.none(), st.text(alphabet="0123,-", max_size=6)),
)
def test_poly_commands_keep_the_exit_contract(folder, left, right, poset, op, extension):
    a, b = dump(folder, "a.json", left), dump(folder, "b.json", right)
    if op == "boxtimes":
        parts = [a, b, a][: max(element_count(poset), 1)]
        argv = ["poly", "boxtimes", "--poset", dump(folder, "p.json", poset), "--parts", *parts]
        if extension is not None:
            argv.append(f"--extension={extension}")
    else:
        argv = ["poly", op, "--left", a, "--right", b]
    invoke(argv + ["--verbose"])


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    polygraph=polygraph_json(),
    diagram=diagram_json(),
    op=st.sampled_from(["validate", "edge-poset", "decorate", "decorate", "decorate"]),
    assignment=st.sampled_from(["inline", "file", "poly"]),
)
def test_diagram_commands_keep_the_exit_contract(folder, data, polygraph, diagram, op, assignment):
    argv = ["diagram", op, "--polygraph", dump(folder, "pg.json", polygraph),
            "--diagram", dump(folder, "d.json", diagram)]
    if op == "decorate" and assignment == "inline":
        pairs = data.draw(st.lists(st.tuples(names, runtime).map("=".join), max_size=3))
        argv.append(f"--assign={','.join(pairs)}")
    elif op == "decorate" and assignment == "file":
        values = data.draw(st.dictionaries(names, st.one_of(st.integers(0, 9), good_runtimes)))
        argv += ["--assign-file", dump(folder, "v.json", data.draw(mangled(values)))]
    elif op == "decorate":
        counts = st.lists(st.integers(0, 2), min_size=1, max_size=3)
        values = data.draw(st.dictionaries(names, counts))
        argv += ["--algebra", "poly",
                 "--assign-file", dump(folder, "v.json", data.draw(mangled(values)))]
    invoke(argv)


@settings(max_examples=100, deadline=None)
@given(expr=expressions, fmt=st.sampled_from(["text", "json", "dot"]))
def test_eval_keeps_the_exit_contract(expr, fmt):
    invoke(["eval", f"--expr={expr}", "--format", fmt])
