import functools
import json
import random
import time

import pytest

from depcalc import (
    ZIGZAG,
    act,
    cli,
    derive_structure_map,
    disjoint_union,
    evaluate,
    from_pairs,
    join,
    parse_expression,
    singleton,
    transitive_reduction,
    verify_proof,
)
from depcalc.cli import EXIT_INTERNAL, main
from depcalc.polynomial import MAX_COMPOSE_ENTRIES
from depcalc.poset import MAX_ELEMENTS, from_json_dict, to_json_dict
from depcalc.tropical import MAX_GANTT_COLUMNS

from conftest import alternating_nest, middle_out, random_sp_covers

ZIGZAG_JSON = {"elements": 4, "relations": [[0, 1], [2, 1], [2, 3]]}
EXPR_JSON = {"elements": 4, "relations": [[0, 1], [0, 2], [2, 3]]}
TWO_CHAINS_JSON = {"elements": 4, "relations": [[0, 1], [2, 3]]}


@pytest.fixture
def write(tmp_path):
    def _write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_expressible(write, capsys):
    code, out, _ = run(capsys, "check", "--poset", write("p.json", EXPR_JSON))
    assert code == 0 and "expressible" in out


def test_check_zigzag_exits_one(write, capsys):
    code, out, _ = run(capsys, "check", "--poset", write("z.json", ZIGZAG_JSON))
    assert code == 1
    assert "0 1 2 3" in out


def test_check_json_mode(write, capsys):
    code, out, _ = run(
        capsys, "check", "--poset", write("z.json", ZIGZAG_JSON), "--format", "json"
    )
    assert code == 1
    assert json.loads(out) == {"expressible": False, "obstruction": [0, 1, 2, 3]}


def test_decompose(write, capsys):
    code, out, _ = run(capsys, "decompose", "--poset", write("p.json", EXPR_JSON))
    assert code == 0
    assert out.strip() == "(tri x0 (ox x1 (tri x2 x3)))"


def test_decompose_obstruction(write, capsys):
    code, out, _ = run(capsys, "decompose", "--poset", write("z.json", ZIGZAG_JSON))
    assert code == 1


def test_check_and_decompose_report_the_same_least_zigzag(write, capsys):
    # A zig-zag under a bottom element beside a second zig-zag, relabeled:
    # the least witness lies in the second one, not in the part split first.
    p = act([7, 6, 8, 2, 0, 4, 3, 5, 1], disjoint_union(join(singleton(), ZIGZAG), ZIGZAG))
    path = write("p.json", to_json_dict(p))
    outs = []
    for command in ("check", "decompose"):
        code, out, _ = run(capsys, command, "--poset", path, "--format", "json")
        assert code == 1
        outs.append(json.loads(out)["obstruction"])
    assert outs == [[4, 3, 5, 1], [4, 3, 5, 1]]


def test_decompose_long_chain_exits_zero(write, capsys):
    n = 2000
    chain_json = {"elements": n, "relations": [[i, i + 1] for i in range(n - 1)]}
    code, out, err = run(capsys, "decompose", "--poset", write("c.json", chain_json))
    assert code == 0 and err == ""
    assert out.strip() == "(tri " + " ".join(f"x{i}" for i in range(n)) + ")"


def _longest_chain_sum(n, covers, runtimes):
    """Greatest runtime sum along a chain: relaxes each cover pair once, in
    Kahn order over adjacency lists."""
    above = [[] for _ in range(n)]
    waiting = [0] * n
    for i, j in covers:
        above[i].append(j)
        waiting[j] += 1
    start = [0] * n
    ready = [e for e in range(n) if not waiting[e]]
    best = 0
    while ready:
        e = ready.pop()
        finish = start[e] + runtimes[e]
        best = max(best, finish)
        for j in above[e]:
            start[j] = max(start[j], finish)
            waiting[j] -= 1
            if not waiting[j]:
                ready.append(j)
    return best


def _run_poset_commands(capsys, path, n, covers, runtimes):
    """check, decompose and tropical on one file; returns the decompose text."""
    code, out, err = run(capsys, "check", "--poset", path)
    assert (code, out, err) == (0, "expressible\n", "")
    code, text, err = run(capsys, "decompose", "--poset", path)
    assert (code, err) == (0, "")
    code, out, err = run(capsys, "tropical", "--poset", path,
                         "--runtimes", ",".join(map(str, runtimes)), "--format", "json")
    assert (code, err) == (0, "")
    plan = json.loads(out)
    assert plan["makespan"] == str(_longest_chain_sum(n, covers, runtimes))
    chain = plan["critical_chain"]
    assert sum(runtimes[e] for e in chain) == int(plan["makespan"])
    return text


def _run_on_a_chain(capsys, path, labels, runtimes):
    """check, decompose and tropical on a chain listed bottom to top, with
    positive runtimes: every output exactly."""
    assert run(capsys, "check", "--poset", path) == (0, "expressible\n", "")
    text = "(tri " + " ".join(f"x{e}" for e in labels) + ")\n"
    assert run(capsys, "decompose", "--poset", path) == (0, text, "")
    code, out, err = run(capsys, "tropical", "--poset", path,
                         "--runtimes", ",".join(map(str, runtimes)), "--format", "json")
    assert (code, err) == (0, "")
    start, finish, done = [0] * len(labels), [0] * len(labels), 0
    for e in labels:
        start[e], done = done, done + runtimes[e]
        finish[e] = done
    assert json.loads(out) == {"critical_chain": labels, "makespan": str(done),
                               "start": list(map(str, start)), "finish": list(map(str, finish))}


def test_commands_on_thousands_of_elements_given_as_cover_pairs(write, capsys):
    n = 4096
    runtimes = [i % 5 for i in range(n)]
    covers = [(i, i + 1) for i in range(n - 1)]
    text = _run_poset_commands(capsys, write("chain.json", {"elements": n, "relations": covers}),
                               n, covers, runtimes)
    assert text == "(tri " + " ".join(f"x{i}" for i in range(n)) + ")\n"
    covers = random_sp_covers(random.Random(n), n)
    text = _run_poset_commands(capsys, write("sp.json", {"elements": n, "relations": covers}),
                               n, covers, runtimes)
    assert transitive_reduction(evaluate(parse_expression(text))) == sorted(covers)
    # Labels that neither rise nor fall along the order.
    labels = middle_out(n)
    path = write("middle.json", {"elements": n, "relations": list(zip(labels, labels[1:]))})
    _run_on_a_chain(capsys, path, labels, [1 + i % 3 for i in range(n)])


def _blown_up_zigzag_covers(k):
    """Cover pairs of the zig-zag with each element blown up into a k-chain,
    block a first: labels 0..k-1 are a's chain, k..2k-1 b's, and so on."""
    pairs = [(i, i + 1) for block in range(4) for i in range(block * k, block * k + k - 1)]
    return pairs + [(k - 1, k), (3 * k - 1, k), (3 * k - 1, 3 * k)]


def _check_and_decompose_the_blown_up_zigzag(write, capsys, k):
    """The whole file is one prime part: both commands name the least
    element of each block, in text and in JSON."""
    path = write("blown.json", {"elements": 4 * k, "relations": _blown_up_zigzag_covers(k)})
    witness = [0, k, 2 * k, 3 * k]
    line = "not expressible; zig-zag at " + " ".join(map(str, witness)) + "\n"
    for command, verdict in (("check", {"expressible": False}), ("decompose", {"expression": None})):
        assert run(capsys, command, "--poset", path) == (1, line, "")
        code, out, err = run(capsys, command, "--poset", path, "--format", "json")
        assert (code, err) == (1, "")
        assert json.loads(out) == {**verdict, "obstruction": witness}


def test_check_and_decompose_the_blown_up_zigzag_on_thousands_of_elements(write, capsys):
    _check_and_decompose_the_blown_up_zigzag(write, capsys, 1024)


@pytest.mark.slow
def test_commands_on_the_three_files_at_the_element_cap(write, capsys):
    n = MAX_ELEMENTS
    runtimes = [1 + i % 3 for i in range(n)]
    files = {
        "chain": [(i, i + 1) for i in range(n - 1)],
        "antichain": [],
        "sp": random_sp_covers(random.Random(n), n),
    }
    for name, covers in files.items():
        path = write(f"{name}.json", {"elements": n, "relations": covers})
        text = _run_poset_commands(capsys, path, n, covers, runtimes)
        if name == "sp":
            assert transitive_reduction(evaluate(parse_expression(text))) == sorted(covers)
        else:
            head = "tri" if covers else "ox"
            assert text == f"({head} " + " ".join(f"x{i}" for i in range(n)) + ")\n"
    labels = middle_out(n)
    path = write("middle.json", {"elements": n, "relations": list(zip(labels, labels[1:]))})
    _run_on_a_chain(capsys, path, labels, runtimes)
    _check_and_decompose_the_blown_up_zigzag(write, capsys, n // 4)


def test_decompose_deep_ox_tri_alternation_exits_zero(write, capsys):
    # Built from pairs, not through evaluate: x_k is below everything after it
    # exactly when its level is a tri, so no level flattens into its parent.
    depth = 1199
    pairs = [(k, j) for k in range(1, depth, 2) for j in range(k + 1, depth + 1)]
    path = write("nest.json", to_json_dict(from_pairs(depth + 1, pairs)))
    code, out, err = run(capsys, "decompose", "--poset", path)
    assert code == 0 and err == ""
    assert out == alternating_nest(depth) + "\n"
    code, out, err = run(capsys, "derive", "--source", path, "--target", path)
    assert code == 0 and err == ""
    assert out == f"equiv: {alternating_nest(depth)} => {alternating_nest(depth)}\n"


def test_derive_down_a_deep_ox_tri_alternation_exits_zero(write, capsys):
    # 350 elements; the target adds 348 < 349, so the two sides differ only
    # at the innermost of 349 alternating levels and the derivation descends
    # through all of them.
    depth = 349
    pairs = [(k, j) for k in range(1, depth, 2) for j in range(k + 1, depth + 1)]
    source = from_pairs(depth + 1, pairs)
    target = from_pairs(depth + 1, pairs + [(depth - 1, depth)])
    code, out, err = run(capsys, "derive", "--source", write("s.json", to_json_dict(source)),
                         "--target", write("t.json", to_json_dict(target)))
    assert code == 0 and err == ""
    assert out.startswith(f"otimes-par: {alternating_nest(depth)} => (ox x0 (tri x1 ")
    assert len(out.splitlines()) > depth
    assert verify_proof(derive_structure_map(source, target))


def test_eval_roundtrips_poset_json(capsys):
    code, out, _ = run(
        capsys, "eval", "--expr", "(tri x0 (ox x1 (tri x2 x3)))", "--format", "json"
    )
    assert code == 0
    assert from_json_dict(json.loads(out)) == from_pairs(4, [(0, 1), (0, 2), (0, 3), (2, 3)])


def test_eval_dot(capsys):
    code, out, _ = run(capsys, "eval", "--expr", "(tri x0 x1)", "--format", "dot")
    assert code == 0 and "0 -> 1;" in out


def test_eval_bad_expression_exits_two(capsys):
    code, _, err = run(capsys, "eval", "--expr", "(ox x0")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("text", ["x²", "(ox x0 x¹)", "x٣", "x０"])
def test_eval_non_ascii_digits_exit_two(capsys, text):
    code, out, err = run(capsys, "eval", "--expr", text)
    assert code == 2 and out == ""
    assert err.startswith("error: unexpected token ") and err.count("\n") == 1


def test_derive(write, capsys):
    src = write("a.json", {"elements": 2, "relations": []})
    tgt = write("b.json", {"elements": 2, "relations": [[0, 1]]})
    code, out, _ = run(capsys, "derive", "--source", src, "--target", tgt)
    assert code == 0
    assert "interchanger-subst" in out


def test_derive_not_inclusion_exits_one(write, capsys):
    src = write("a.json", {"elements": 2, "relations": [[0, 1]]})
    tgt = write("b.json", {"elements": 2, "relations": []})
    code, _, err = run(capsys, "derive", "--source", src, "--target", tgt)
    assert code == 1 and "no structure map" in err


def test_derive_json_tree(write, capsys):
    src = write("a.json", TWO_CHAINS_JSON)
    tgt = write(
        "b.json", {"elements": 4, "relations": [[0, 1], [2, 3], [0, 3], [2, 1]]}
    )
    code, out, _ = run(capsys, "derive", "--source", src, "--target", tgt, "--format", "json")
    assert code == 0
    tree = json.loads(out)
    assert tree["kind"] == "interchanger-subst"
    assert parse_expression(tree["source"]) is not None


def test_covers_and_intersect(write, capsys, tmp_path):
    zpath = write("z.json", ZIGZAG_JSON)
    code, out, _ = run(capsys, "covers", "--poset", zpath, "--format", "json")
    assert code == 0
    covers = json.loads(out)["covers"]
    assert len(covers) >= 2
    paths = []
    for k, cover in enumerate(covers):
        p = tmp_path / f"c{k}.json"
        p.write_text(json.dumps(cover), encoding="utf-8")
        paths.append(str(p))
    code, out, _ = run(capsys, "intersect", *paths, "--format", "json")
    assert code == 0
    assert from_json_dict(json.loads(out)) == from_pairs(4, [(0, 1), (2, 1), (2, 3)])


def test_intersect_size_mismatch_exits_two(write, capsys):
    a = write("a.json", {"elements": 2, "relations": []})
    b = write("b.json", {"elements": 3, "relations": []})
    code, _, err = run(capsys, "intersect", a, b)
    assert code == 2


def test_tropical(write, capsys):
    code, out, _ = run(
        capsys,
        "tropical",
        "--poset",
        write("p.json", TWO_CHAINS_JSON),
        "--runtimes",
        "1,3,4,1",
    )
    assert code == 0
    assert "makespan: 5" in out


def test_tropical_json_exact_fractions(write, capsys):
    code, out, _ = run(
        capsys,
        "tropical",
        "--poset",
        write("p.json", {"elements": 2, "relations": [[0, 1]]}),
        "--runtimes",
        "0.1,0.2",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["makespan"] == "3/10"
    assert payload["start"] == ["0", "1/10"]


def test_tropical_gantt(write, capsys):
    code, out, _ = run(
        capsys,
        "tropical",
        "--poset",
        write("p.json", TWO_CHAINS_JSON),
        "--runtimes",
        "1,3,4,1",
        "--gantt",
    )
    assert code == 0
    assert "[####.]" in out


def test_poly_commands(write, capsys):
    left = write("l.json", {"positions": [2, 1]})
    right = write("r.json", {"positions": [1, 0]})
    code, out, _ = run(capsys, "poly", "ox", "--left", left, "--right", right, "--format", "json")
    assert code == 0
    assert json.loads(out)["signature"] == [2, 1, 0, 0]
    code, out, _ = run(capsys, "poly", "tri", "--left", left, "--right", right, "--format", "json")
    assert json.loads(out)["signature"] == [2, 1, 1, 1, 0, 0]


def test_poly_boxtimes(write, capsys):
    poset_path = write("p.json", {"elements": 2, "relations": []})
    part = write("q.json", {"positions": [1, 0]})
    code, out, _ = run(
        capsys,
        "poly",
        "boxtimes",
        "--poset",
        poset_path,
        "--parts",
        part,
        part,
        "--format",
        "json",
    )
    assert code == 0
    assert json.loads(out)["signature"] == [1, 0, 0, 0]


def test_poly_boxtimes_reads_the_given_extension(write, capsys):
    argv = ["poly", "boxtimes", "--poset", write("p.json", {"elements": 2, "relations": [[1, 0]]}),
            "--parts", *[write("q.json", {"positions": [1, 0]})] * 2, "--extension"]
    assert run(capsys, *argv, "1,0") == (0, "signature: 1 0 0  (y + 2)\n", "")
    assert run(capsys, *argv, "0,1") == (
        2, "", "error: (0, 1) is not a linear extension of the poset\n")
    assert run(capsys, *argv, "a") == (
        2, "", "error: invalid literal for int() with base 10: 'a'\n")
    assert run(capsys, *argv, "") == (2, "", "error: () is not a linear extension of the poset\n")


def _one_wire_diagram(write):
    pg = {"types": ["w"], "compat": [["w", "w"]],
          "generators": {"a": {"src": ["w"], "tgt": ["w"]}, "b": {"src": ["w"], "tgt": ["w"]}}}
    diag = {"input": ["w"], "output": ["w"], "layers": [[{"gen": "a"}], [{"gen": "b"}]]}
    return ["--polygraph", write("pg.json", pg), "--diagram", write("d.json", diag)]


@pytest.mark.parametrize("assignment, message", [
    (["--assign-file", [["a", 1]]], "assignment file must map generator names to values"),
    (["--assign", "a=1", "--algebra", "poly"],
     "inline --assign holds runtimes; use --assign-file for polynomials"),
    (["--assign", "f"], "bad assignment 'f'; expected name=value"),
])
def test_diagram_decorate_bad_assignment_exits_two(write, capsys, assignment, message):
    option, value, *rest = assignment
    if option == "--assign-file":
        value = write("v.json", value)
    code, out, err = run(capsys, "diagram", "decorate", *_one_wire_diagram(write),
                         option, value, *rest)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_diagram_commands(write, capsys):
    pg = {
        "types": ["w"],
        "compat": [["w", "w"]],
        "generators": {"a": {"src": ["w"], "tgt": ["w"]}, "b": {"src": ["w"], "tgt": ["w"]}},
    }
    diag = {
        "input": ["w"],
        "output": ["w"],
        "layers": [[{"gen": "a"}], [{"gen": "b"}]],
    }
    pg_path = write("pg.json", pg)
    d_path = write("d.json", diag)
    code, out, _ = run(
        capsys, "diagram", "edge-poset", "--polygraph", pg_path, "--diagram", d_path,
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert from_json_dict(payload["poset"]) == from_pairs(2, [(0, 1)])
    assert payload["instances"][0]["generator"] == "a"
    files = ["--polygraph", pg_path, "--diagram", d_path]
    assert run(capsys, "diagram", "edge-poset", *files) == (
        0, "0: a (layer 0)\n1: b (layer 1)\nelements: 2\nrelations: 0<1\n", "")

    code, out, _ = run(
        capsys, "diagram", "validate", "--polygraph", pg_path, "--diagram", d_path
    )
    assert code == 0 and "valid" in out

    bad = dict(diag, output=["w", "w"])
    bad_path = write("bad.json", bad)
    code, out, _ = run(
        capsys, "diagram", "validate", "--polygraph", pg_path, "--diagram", bad_path
    )
    assert code == 1 and "invalid" in out

    code, out, _ = run(
        capsys,
        "diagram",
        "decorate",
        "--polygraph",
        pg_path,
        "--diagram",
        d_path,
        "--assign",
        "a=1.5,b=2",
    )
    assert code == 0 and "7/2" in out
    assert run(capsys, "diagram", "decorate", *files, "--assign", "a=1.5,b=2",
               "--format", "json") == (0, '{"value": "7/2"}\n', "")

    assign = write("assign.json", {"a": [1, 0], "b": [2]})
    code, out, _ = run(
        capsys,
        "diagram",
        "decorate",
        "--polygraph",
        pg_path,
        "--diagram",
        d_path,
        "--algebra",
        "poly",
        "--assign-file",
        assign,
        "--format",
        "json",
    )
    assert code == 0
    assert json.loads(out)["signature"] == [2, 0]


def test_decompose_json_expression_reparses(write, capsys):
    code, out, _ = run(
        capsys, "decompose", "--poset", write("p.json", EXPR_JSON), "--format", "json"
    )
    assert code == 0
    text = json.loads(out)["expression"]
    assert parse_expression(text) == parse_expression("(tri x0 (ox x1 (tri x2 x3)))")


def test_tropical_bad_runtimes_exits_two(write, capsys):
    code, _, err = run(
        capsys,
        "tropical",
        "--poset",
        write("p.json", {"elements": 1, "relations": []}),
        "--runtimes",
        "-3",
    )
    assert code == 2 and "error" in err


def test_tropical_gantt_resolution(write, capsys):
    code, out, _ = run(
        capsys,
        "tropical",
        "--poset",
        write("p.json", {"elements": 1, "relations": []}),
        "--runtimes",
        "1",
        "--gantt",
        "--resolution",
        "0.5",
    )
    assert code == 0 and "[##]" in out


def test_tropical_gantt_bad_resolution_names_the_resolution(write, capsys):
    path = write("p.json", {"elements": 1, "relations": []})
    for resolution in ("-1", "abc", "0", "1e99999"):
        code, out, err = run(capsys, "tropical", "--poset", path, "--runtimes", "1",
                             "--gantt", "--resolution", resolution)
        assert (code, out) == (2, "")
        assert err == f"error: resolution must be a positive number, got {resolution!r}\n"


def test_tropical_gantt_past_the_column_cap_exits_two(write, capsys):
    code, out, err = run(
        capsys,
        "tropical",
        "--poset",
        write("p.json", {"elements": 4, "relations": [[0, 1], [2, 3]]}),
        "--runtimes",
        "1,2,3,4",
        "--gantt",
        "--resolution",
        "1e-7",
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(MAX_GANTT_COLUMNS) in err


def test_poly_tri_past_the_compose_cap_exits_two(write, capsys):
    left = write("l.json", {"positions": [12]})
    right = write("r.json", {"positions": [1] * 10})
    code, out, err = run(capsys, "poly", "tri", "--left", left, "--right", right)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(MAX_COMPOSE_ENTRIES) in err


def test_poly_ox_past_the_compose_cap_exits_two(write, capsys):
    wide = write("w.json", {"positions": [1] * 2048})
    code, out, err = run(capsys, "poly", "ox", "--left", wide, "--right", wide)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(MAX_COMPOSE_ENTRIES) in err


def test_poly_boxtimes_past_the_count_exits_two(write, capsys):
    chains = write("c.json", {"elements": 3, "relations": [[0, 1], [1, 2]]})
    part = write("q.json", {"positions": [3, 3, 3, 3]})
    code, out, err = run(capsys, "poly", "boxtimes", "--poset", chains, "--parts", part, part, part)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(MAX_COMPOSE_ENTRIES) in err


def test_poly_verbose_table(write, capsys):
    left = write("l.json", {"positions": [2, 1]})
    right = write("r.json", {"positions": [1, 0]})
    code, out, _ = run(capsys, "poly", "ox", "--left", left, "--right", right, "--verbose")
    assert code == 0
    assert "position direction-count" in out


def test_poly_bad_json_exits_two(write, capsys):
    bad = write("l.json", {"positions": [-1]})
    code, _, err = run(capsys, "poly", "ox", "--left", bad, "--right", bad)
    assert code == 2


def test_non_integer_json_exits_two(write, capsys):
    for name, payload in (
        ("float.json", {"elements": 3, "relations": [[0, 1.7]]}),
        ("bool.json", {"elements": True, "relations": []}),
    ):
        code, out, err = run(capsys, "check", "--poset", write(name, payload))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    code, _, err = run(capsys, "poly", "ox", "--left", write("p.json", {"positions": [True]}),
                       "--right", write("q.json", {"positions": [1]}))
    assert code == 2 and err.startswith("error: ")


def test_deeply_nested_json_exits_two(tmp_path, write, capsys):
    # json.load recurses once per bracket; a file too deep for it is an input
    # error, whichever option names it.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="utf-8")
    assert run(capsys, "check", "--poset", str(deep)) == (
        2, "", f"error: {deep}: JSON nests too deeply to read\n")
    argv = ["diagram", "decorate", *_one_wire_diagram(write), "--assign-file", str(deep)]
    assert run(capsys, *argv) == (2, "", f"error: {deep}: JSON nests too deeply to read\n")


@pytest.mark.parametrize("relations", [5, None, "01", {"0": 1}])
def test_relations_that_are_not_a_list_exit_two(write, capsys, relations):
    path = write("p.json", {"elements": 2, "relations": relations})
    code, out, err = run(capsys, "check", "--poset", path)
    assert (code, out) == (2, "")
    assert err == "error: 'relations' must be a list of [i, j] pairs\n"


def test_eval_reads_any_depth(capsys):
    # In the alternating nest each odd (tri) level's variable is covered by
    # the next two; the even (ox) levels' variables are maximal.
    depth = 5000
    covers = [(k, j) for k in range(1, depth, 2) for j in (k + 1, k + 2) if j <= depth]
    expected = "".join(
        ["digraph poset {\n", *(f"  {i};\n" for i in range(depth + 1)),
         *(f"  {i} -> {j};\n" for i, j in covers), "}\n"]
    )
    assert run(capsys, "eval", "--expr", alternating_nest(depth), "--format", "dot") == (
        0, expected, "")
    deep_chain = "(tri " * 1500 + "x0" + ")" * 1500
    assert run(capsys, "eval", "--expr", deep_chain) == (0, "elements: 1\nrelations: (none)\n", "")


def test_inputs_past_the_element_cap_exit_two(write, capsys):
    huge = write("huge.json", {"elements": 100000000000, "relations": []})
    over = write("over.json", {"elements": MAX_ELEMENTS + 1, "relations": []})
    for argv in (
        ("eval", "--expr", "(ox x0 x99999999999)"),
        ("eval", "--expr", f"x{MAX_ELEMENTS}"),
        ("check", "--poset", huge),
        ("decompose", "--poset", over),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_derive_missing_file_exits_two(capsys):
    code, _, _ = run(capsys, "derive", "--source", "/none/a.json", "--target", "/none/b.json")
    assert code == 2


def test_diagram_decorate_missing_assignment_exits_two(write, capsys):
    pg = {
        "types": ["w"],
        "compat": [["w", "w"]],
        "generators": {"a": {"src": ["w"], "tgt": ["w"]}},
    }
    diag = {"input": ["w"], "output": ["w"], "layers": [[{"gen": "a"}]]}
    code, _, err = run(
        capsys,
        "diagram",
        "decorate",
        "--polygraph",
        write("pg.json", pg),
        "--diagram",
        write("d.json", diag),
        "--assign",
        "b=1",
    )
    assert code == 2 and "error" in err


def test_diagram_stage_lines_name_the_stage_once(write, capsys):
    pg = write("pg.json", {"types": ["z"], "compat": [], "generators": {}})
    diag = write("d.json", {"input": ["z", "z"], "output": ["z", "z"], "layers": []})
    code, out, _ = run(capsys, "diagram", "validate", "--polygraph", pg, "--diagram", diag)
    assert code == 1
    assert out == "invalid at stage 0: types 'z' and 'z' are not compatible neighbors\n"

    short = write("short.json", {"input": ["z"], "output": ["z", "z"], "layers": [[{"id": "z"}]]})
    code, _, err = run(capsys, "diagram", "edge-poset", "--polygraph", pg, "--diagram", short)
    assert code == 2
    assert err == "error: stage 1: final stage ['z'] != outputs ['z', 'z']\n"


@pytest.mark.parametrize(
    "polygraph, message",
    [
        ({"types": ["w"], "compat": [["w", "q"]], "generators": {}},
         "error: compat pair ('w', 'q') uses unknown type 'q'\n"),
        ({"types": ["w"], "generators": {"a": {"tgt": ["w"]}}},
         "error: generator 'a' needs 'src' and 'tgt' lists of types\n"),
        ({"types": ["w"], "generators": {"a": {"src": 3, "tgt": []}}},
         "error: generator 'a' needs 'src' and 'tgt' lists of types\n"),
    ],
)
def test_bad_polygraph_exits_two_with_one_line(write, capsys, polygraph, message):
    diag = write("d.json", {"input": [], "output": [], "layers": []})
    code, _, err = run(capsys, "diagram", "validate", "--polygraph", write("pg.json", polygraph),
                       "--diagram", diag)
    assert (code, err) == (2, message)


GOOD_POLYGRAPH = {"types": ["w", "q"], "compat": [["w", "w"], ["w", "q"]], "generators": {}}
GOOD_DIAGRAM = {"input": ["w", "w"], "output": ["w", "w"], "layers": [[{"swap": ["w", "w"]}]]}


@pytest.mark.parametrize(
    "polygraph, diagram, message",
    [
        ({"types": "wq"}, {}, "'types' must be a list, got 'wq'"),
        ({"compat": "ww"}, {}, "'compat' must be a list, got 'ww'"),
        ({"compat": ["ww", "wq"]}, {}, "a compat pair must be a list of 2 entries, got 'ww'"),
        ({"compat": [["w", "w", "w"]]}, {},
         "a compat pair must be a list of 2 entries, got ['w', 'w', 'w']"),
        ({}, {"input": "ww"}, "'input' must be a list, got 'ww'"),
        ({}, {"output": "ww"}, "'output' must be a list, got 'ww'"),
        ({}, {"layers": "ww"}, "'layers' must be a list, got 'ww'"),
        ({}, {"layers": [{"swap": ["w", "w"]}]},
         "a layer must be a list, got {'swap': ['w', 'w']}"),
        ({}, {"layers": [[{"swap": "ww"}]]}, "'swap' must be a list of 2 entries, got 'ww'"),
        ({}, {"layers": [[{"swap": ["w"]}]]}, "'swap' must be a list of 2 entries, got ['w']"),
    ],
)
def test_json_strings_where_the_format_says_lists_exit_two(write, capsys, polygraph, diagram,
                                                           message):
    pg = write("pg.json", {**GOOD_POLYGRAPH, **polygraph})
    diag = write("d.json", {**GOOD_DIAGRAM, **diagram})
    code, out, err = run(capsys, "diagram", "validate", "--polygraph", pg, "--diagram", diag)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "polygraph, diagram, message",
    [
        ({"types": ["w", 1]}, {}, "an entry of 'types' must be a string, got 1"),
        ({"compat": [["w", ["w"]]]}, {}, "an entry of a compat pair must be a string, got ['w']"),
        ({"generators": {"f": {"src": [["w"]], "tgt": []}}}, {},
         "an entry of 'src' of generator 'f' must be a string, got ['w']"),
        ({"generators": {"f": {"src": [], "tgt": ["w", None]}}}, {},
         "an entry of 'tgt' of generator 'f' must be a string, got None"),
        ({"generators": {"f": {"src": ["w"], "tgt": ["w"]}}},
         {"input": ["w"], "output": ["w"], "layers": [[{"gen": ["f"]}]]},
         "'gen' must be a string, got ['f']"),
        ({}, {"input": ["w"], "output": ["w"], "layers": [[{"id": 0}]]},
         "'id' must be a string, got 0"),
        ({}, {"layers": [[{"swap": ["w", True]}]]}, "an entry of 'swap' must be a string, got True"),
        ({}, {"input": [["w"], "w"]}, "an entry of 'input' must be a string, got ['w']"),
        ({}, {"output": ["w", 1.5]}, "an entry of 'output' must be a string, got 1.5"),
    ],
)
def test_json_non_strings_where_the_format_says_names_exit_two(write, capsys, polygraph, diagram,
                                                               message):
    pg = write("pg.json", {**GOOD_POLYGRAPH, **polygraph})
    diag = write("d.json", {**GOOD_DIAGRAM, **diagram})
    code, out, err = run(capsys, "diagram", "validate", "--polygraph", pg, "--diagram", diag)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_json_lists_where_the_format_says_lists_validate(write, capsys):
    pg, diag = write("pg.json", GOOD_POLYGRAPH), write("d.json", GOOD_DIAGRAM)
    code, out, _ = run(capsys, "diagram", "validate", "--polygraph", pg, "--diagram", diag)
    assert (code, out) == (0, "valid\n")


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "check", "--poset", "/nonexistent/p.json")
    assert code == 2 and "error" in err


def test_usage_error_exits_two(capsys):
    assert main(["check"]) == 2
    capsys.readouterr()


def test_emitted_poset_json_reparses_equal(write, capsys):
    for payload in (ZIGZAG_JSON, EXPR_JSON, TWO_CHAINS_JSON):
        path = write("p.json", payload)
        code, out, _ = run(capsys, "intersect", path, "--format", "json")
        assert code == 0
        assert to_json_dict(from_json_dict(json.loads(out))) == json.loads(out)


def test_main_builds_its_parser_once(write, capsys, monkeypatch):
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    poset = write("p.json", EXPR_JSON)
    zigzag = write("z.json", ZIGZAG_JSON)
    chains = write("c.json", TWO_CHAINS_JSON)
    left = write("l.json", {"positions": [2, 1]})
    right = write("r.json", {"positions": [1, 0]})
    pg = write("pg.json", {
        "types": ["w"],
        "compat": [["w", "w"]],
        "generators": {"a": {"src": ["w"], "tgt": ["w"]}},
    })
    diag = write("d.json", {"input": ["w"], "output": ["w"], "layers": [[{"gen": "a"}]]})
    calls = [
        ["check", "--poset", zigzag, "--format", "json"],
        ["check", "--poset", zigzag],
        ["decompose", "--poset", poset, "--format", "json"],
        ["decompose", "--poset", poset],
        ["eval", "--expr", "(tri x0 x1)", "--format", "dot"],
        ["eval", "--expr", "(tri x0 x1)"],
        ["derive", "--source", chains, "--target", poset],
        ["derive", "--source", chains, "--target", zigzag, "--format", "json"],
        ["covers", "--poset", zigzag],
        ["intersect", zigzag, chains, "--format", "json"],
        ["intersect", zigzag, chains],
        ["tropical", "--poset", chains, "--runtimes", "1,3,4,1", "--format", "json"],
        ["tropical", "--poset", chains, "--runtimes", "1,3,4,1", "--gantt"],
        ["tropical", "--poset", chains, "--runtimes", "1,3,4,1"],
        ["poly", "ox", "--left", left, "--right", right, "--verbose"],
        ["poly", "tri", "--left", left, "--right", right, "--format", "json"],
        ["poly", "tri", "--left", left, "--right", right],
        ["poly", "boxtimes", "--poset", chains, "--parts", left, right, left, right],
        ["diagram", "validate", "--polygraph", pg, "--diagram", diag],
        ["diagram", "edge-poset", "--polygraph", pg, "--diagram", diag, "--format", "dot"],
        ["diagram", "decorate", "--polygraph", pg, "--diagram", diag, "--assign", "a=2"],
        ["check"],
        ["tropical", "--poset", chains, "--runtimes", "1", "--format", "xml"],
        ["--help"],
        ["poly", "ox", "--help"],
        ["check", "--poset", poset],
    ]

    def outcomes():
        return [run(capsys, *argv) for argv in calls]

    built = []

    def counted():
        built.append(None)
        return cli.build_parser()

    monkeypatch.setattr(cli, "_parser", functools.cache(counted))
    shared = outcomes()
    assert len(built) == 1
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = outcomes()
    assert shared == fresh
    codes = [code for code, _, _ in shared]
    assert codes[:4] == [1, 1, 0, 0] and codes[-5:] == [2, 2, 0, 0, 0]
    assert "usage: depcalc" in shared[-3][1]


@pytest.mark.parametrize("error", [RuntimeError("boom\nsecond line"), RecursionError("deep")])
def test_unexpected_exception_exits_seventy(write, capsys, monkeypatch, error):
    def broken(p):
        raise error

    monkeypatch.setattr(cli, "decompose", broken)
    code, out, err = run(capsys, "check", "--poset", write("p.json", EXPR_JSON))
    assert code == EXIT_INTERNAL == 70 and out == ""
    message = " ".join(str(error).splitlines())
    assert err == f"error: internal: {type(error).__name__}: {message}\n"


def test_keyboard_interrupt_is_not_caught(write, monkeypatch):
    def interrupted(p):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "decompose", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["check", "--poset", write("p.json", EXPR_JSON)])


def test_covers_past_the_guard_exit_two_at_once(write, capsys):
    source = write("a.json", {"elements": 300, "relations": []})
    start = time.perf_counter()
    code, out, err = run(capsys, "covers", "--poset", source)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("runtime", ["1e10000000", "1e-10000000", "0e999999999"])
def test_tropical_runtime_exponents_past_the_bound_exit_two_at_once(write, capsys, runtime):
    source = write("p.json", {"elements": 1, "relations": []})
    start = time.perf_counter()
    code, out, err = run(capsys, "tropical", "--poset", source, "--runtimes", runtime)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_tropical_runtime_exponent_reads_exactly(write, capsys):
    source = write("p.json", {"elements": 1, "relations": []})
    code, out, _ = run(capsys, "tropical", "--poset", source, "--runtimes", "2.5e-1")
    assert code == 0 and out.startswith("makespan: 1/4\n")


@pytest.mark.parametrize("value", ["true", "false", "1e10000000", "-0.5", "null"])
def test_tropical_assignment_values_are_read_as_runtimes(tmp_path, write, capsys, value):
    # As --assign reads them: a decimal exactly, never a boolean, and the
    # exponent bound applies before any power of ten is built.
    pg = {"types": ["w"], "compat": [["w", "w"]],
          "generators": {"a": {"src": ["w"], "tgt": ["w"]}}}
    diag = {"input": ["w"], "output": ["w"], "layers": [[{"gen": "a"}]]}
    argv = ["diagram", "decorate", "--polygraph", write("pg.json", pg),
            "--diagram", write("d.json", diag)]
    values = tmp_path / "v.json"  # written by hand: json.dumps has no 1e10000000
    values.write_text(f'{{"a": {value}}}', encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--assign-file", str(values))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    values.write_text('{"a": 0.1}', encoding="utf-8")
    assert run(capsys, *argv, "--assign-file", str(values))[:2] == (0, "value: 1/10\n")
    assert run(capsys, *argv, "--assign", "a=0.1")[:2] == (0, "value: 1/10\n")


@pytest.mark.parametrize("value", [[True], [1.5], [-1], "y", None])
def test_polynomial_assignment_values_are_checked(write, capsys, value):
    # The same check as a polynomial file: integer direction counts only.
    pg = {"types": ["w"], "compat": [["w", "w"]],
          "generators": {"a": {"src": ["w"], "tgt": ["w"]}}}
    diag = {"input": ["w"], "output": ["w"], "layers": [[{"gen": "a"}]]}
    argv = ["diagram", "decorate", "--polygraph", write("pg.json", pg),
            "--diagram", write("d.json", diag), "--algebra", "poly"]
    code, out, err = run(capsys, *argv, "--assign-file", write("v.json", {"a": value}))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    code, out, _ = run(capsys, *argv, "--assign-file", write("v.json", {"a": [2, 0]}))
    assert code == 0 and out == "signature: 2 0  (y^2 + 1)\n"
