import json

import pytest

from depcalc import from_pairs, parse_expression
from depcalc.cli import main
from depcalc.expression import MAX_NESTING
from depcalc.polynomial import MAX_COMPOSE_ENTRIES
from depcalc.poset import from_json_dict, to_json_dict
from depcalc.tropical import MAX_GANTT_COLUMNS

from conftest import alternating_nest

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


def test_decompose_long_chain_exits_zero(write, capsys):
    n = 2000
    chain_json = {"elements": n, "relations": [[i, i + 1] for i in range(n - 1)]}
    code, out, err = run(capsys, "decompose", "--poset", write("c.json", chain_json))
    assert code == 0 and err == ""
    assert out.strip() == "(tri " + " ".join(f"x{i}" for i in range(n)) + ")"


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


def test_eval_nesting_past_the_cap_exits_two(capsys):
    depth = MAX_NESTING + 1
    for expr in (alternating_nest(depth), "(tri " * 1500 + "x0" + ")" * 1500):
        code, out, err = run(capsys, "eval", "--expr", expr)
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
