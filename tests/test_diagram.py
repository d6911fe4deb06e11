import random
from fractions import Fraction as F

import pytest

from depcalc import (
    Decoration,
    GenCell,
    IdCell,
    InvalidDiagram,
    InvalidPaths,
    MissingAssignment,
    PolynomialAlgebra,
    StringDiagram,
    SwapCell,
    TropicalAlgebra,
    ZIGZAG,
    act,
    antichain,
    chain,
    check_decoration_laws,
    compose_diagrams,
    decorate,
    diagram_realizing,
    disjoint_union,
    edge_poset,
    from_pairs,
    is_inclusion,
    join,
    layout_dag,
    make_polygraph,
    path_decoration,
    poly,
    schedule,
    signature,
    tensor_diagrams,
    total_polygraph,
    validate_diagram,
)

from conftest import all_posets, diagram_polygraph, random_diagram

TROP = TropicalAlgebra()


def seven_box_network():
    pg = total_polygraph(
        {
            "f": (["w"], ["w", "w", "w"]),
            "g": (["w"], ["w"]),
            "h": (["w"], ["w", "w"]),
            "i": (["w", "w"], ["w", "w"]),
            "j": (["w"], ["w"]),
            "k": (["w", "w", "w"], ["w"]),
            "l": (["w", "w"], ["w"]),
        }
    )
    layers = (
        (GenCell("f"), GenCell("g")),
        (IdCell("w"), IdCell("w"), GenCell("h"), IdCell("w")),
        (IdCell("w"), IdCell("w"), IdCell("w"), GenCell("i")),
        (IdCell("w"), IdCell("w"), SwapCell("w", "w"), IdCell("w")),
        (IdCell("w"), IdCell("w"), GenCell("j"), IdCell("w"), IdCell("w")),
        (GenCell("k"), GenCell("l")),
    )
    return pg, StringDiagram(pg, ("w", "w"), ("w", "w"), layers)


SEVEN_BOX_EDGE_POSET = from_pairs(
    7, [(0, 2), (0, 5), (1, 3), (2, 3), (2, 6), (3, 4), (3, 6), (4, 5)]
)


def test_seven_box_fixture_edge_poset():
    pg, diag = seven_box_network()
    assert validate_diagram(pg, diag) is True
    p, instances = edge_poset(diag)
    assert [inst.name for inst in instances] == ["f", "g", "h", "i", "j", "k", "l"]
    assert p == SEVEN_BOX_EDGE_POSET


def test_single_generator_and_parallel_pair():
    pg = total_polygraph({"a": (["w"], ["w"])})
    one = StringDiagram(pg, ("w",), ("w",), ((GenCell("a"),),))
    p, _ = edge_poset(one)
    assert p == from_pairs(1, [])
    two = StringDiagram(pg, ("w", "w"), ("w", "w"), ((GenCell("a"), GenCell("a")),))
    p, _ = edge_poset(two)
    assert p == antichain(2)


def test_validate_reports_first_failing_stage():
    pg = total_polygraph({"a": (["w"], ["w", "w"])})
    bad = StringDiagram(pg, ("w",), ("w",), ((GenCell("a"),),))  # output arity lies
    verdict = validate_diagram(pg, bad)
    assert not verdict
    assert verdict.stage == 1

    mismatch = StringDiagram(pg, ("w",), ("w", "w"), ((IdCell("q"),),))
    verdict = validate_diagram(pg, mismatch)
    assert not verdict
    assert verdict.stage == 0


def test_validate_checks_compatibility():
    pg = make_polygraph(
        ["a", "b"], [("a", "b")], {"f": (["a"], ["a"]), "g": (["b"], ["b"])}
    )
    # a next to a is not compatible: only (a, b) is allowed
    diag = StringDiagram(
        pg, ("a", "a"), ("a", "a"), ((GenCell("f"), GenCell("f")),)
    )
    verdict = validate_diagram(pg, diag)
    assert not verdict
    assert verdict.stage == 0
    ok = StringDiagram(pg, ("a", "b"), ("a", "b"), ((GenCell("f"), GenCell("g")),))
    assert validate_diagram(pg, ok) is True


def test_empty_diagram_on_empty_boundary():
    pg = total_polygraph({})
    diag = StringDiagram(pg, (), (), ())
    assert validate_diagram(pg, diag) is True
    p, instances = edge_poset(diag)
    assert p.size == 0 and instances == ()
    assert decorate(diag, Decoration({}), TROP) == 0


def test_edge_poset_invariant_under_identity_slides():
    pg = total_polygraph({"a": (["w"], ["w"]), "b": (["w"], ["w"])})
    early = StringDiagram(
        pg,
        ("w", "w"),
        ("w", "w"),
        ((GenCell("a"), IdCell("w")), (IdCell("w"), GenCell("b"))),
    )
    late = StringDiagram(
        pg,
        ("w", "w"),
        ("w", "w"),
        ((IdCell("w"), GenCell("b")), (GenCell("a"), IdCell("w"))),
    )
    flat = StringDiagram(
        pg, ("w", "w"), ("w", "w"), ((GenCell("a"), GenCell("b")),)
    )
    reference = {}
    for diag in (early, late, flat):
        p, instances = edge_poset(diag)
        relabeled = act([ord(i.name) - ord("a") for i in instances], p)
        reference.setdefault("shape", relabeled)
        assert relabeled == reference["shape"] == antichain(2)


def test_decorate_two_parallel_chains():
    pg = total_polygraph(
        {"f1": (["w"], ["w"]), "f2": (["w"], ["w"]), "g1": (["w"], ["w"]), "g2": (["w"], ["w"])}
    )
    diag = StringDiagram(
        pg,
        ("w", "w"),
        ("w", "w"),
        ((GenCell("f1"), GenCell("g1")), (GenCell("f2"), GenCell("g2"))),
    )
    d = Decoration({"f1": F(1), "f2": F(3), "g1": F(4), "g2": F(1)})
    assert decorate(diag, d, TROP) == 5


def test_decorate_seven_box_all_ones():
    pg, diag = seven_box_network()
    d = Decoration({name: F(1) for name in "fghijkl"})
    value = decorate(diag, d, TROP)
    # longest dependency chain: f h i j k
    assert value == 5
    p, _ = edge_poset(diag)
    assert value == max(
        sum(F(1) for _ in c) for c in __import__("depcalc").chains(p)
    )


def test_decorate_missing_assignment():
    pg, diag = seven_box_network()
    with pytest.raises(MissingAssignment):
        decorate(diag, Decoration({"f": F(1)}), TROP)


def test_path_decoration():
    pg = total_polygraph(
        {"a1": (["w"], ["w"]), "a2": (["w"], ["w"]), "b1": (["w"], ["w"]), "b2": (["w"], ["w"])}
    )
    d = Decoration({"a1": F(1), "a2": F(3), "b1": F(4), "b2": F(1)})
    assert path_decoration(pg, d, TROP, [["a1", "a2"], ["b1", "b2"]]) == 5
    assert path_decoration(pg, d, TROP, [["a1", "a2"]]) == 4

    # cross-check against the equivalent layered diagram
    diag = StringDiagram(
        pg,
        ("w", "w"),
        ("w", "w"),
        ((GenCell("a1"), GenCell("b1")), (GenCell("a2"), GenCell("b2"))),
    )
    assert decorate(diag, d, TROP) == path_decoration(
        pg, d, TROP, [["a1", "a2"], ["b1", "b2"]]
    )


def test_path_decoration_rejects_bad_paths():
    pg = make_polygraph(
        ["u", "v"],
        [("u", "u"), ("u", "v"), ("v", "v")],
        {"f": (["u"], ["v"]), "g": (["v"], ["u"]), "wide": (["u", "u"], ["u"])},
    )
    d = Decoration({"f": F(1), "g": F(1), "wide": F(1)})
    assert path_decoration(pg, d, TROP, [["f", "g"]]) == 2
    with pytest.raises(InvalidPaths):
        path_decoration(pg, d, TROP, [["f", "f"]])  # not composable
    with pytest.raises(InvalidPaths):
        path_decoration(pg, d, TROP, [["wide"]])  # not single-wire
    with pytest.raises(InvalidPaths):
        path_decoration(pg, d, TROP, [[]])


def test_tensor_and_compose_diagrams():
    pg = total_polygraph({"a": (["w"], ["w"]), "b": (["w"], ["w"])})
    one = StringDiagram(pg, ("w",), ("w",), ((GenCell("a"),),))
    two = StringDiagram(
        pg, ("w",), ("w",), ((GenCell("a"),), (GenCell("b"),))
    )
    wide = tensor_diagrams(one, two)
    assert validate_diagram(pg, wide) is True
    p, _ = edge_poset(wide)
    assert p == disjoint_union(from_pairs(1, []), chain(2))

    stacked = compose_diagrams(one, two)
    p, _ = edge_poset(stacked)
    assert p == chain(3)
    with pytest.raises(InvalidDiagram):
        compose_diagrams(one, tensor_diagrams(one, one))


def test_decoration_laws_on_random_diagrams():
    rng = random.Random(97)
    pg = diagram_polygraph()
    d = Decoration({name: F(k + 1) for k, name in enumerate("abcdfg")})
    samples = []
    for _ in range(30):
        d1 = random_diagram(rng, pg, max_instances=4)
        d2 = random_diagram(rng, pg, max_instances=4)
        samples.append(("tensor", d1, d2))
        follow = random_diagram(rng, pg, max_instances=4, start_width=len(d1.outputs))
        samples.append(("compose", d1, follow))
    report = check_decoration_laws(pg, d, TROP, samples)
    assert report and all(entry.passed for entry in report)


def test_decoration_interchange_square_worked_numbers():
    # four unary boxes with runtimes f=1, f'=4, g=3, g'=1: the composite of the
    # two tensor pairs runs in 5 while the compositor bound is 3 + 4 = 7
    pg = total_polygraph(
        {"f": (["w"], ["w"]), "fp": (["w"], ["w"]), "g": (["w"], ["w"]), "gp": (["w"], ["w"])}
    )
    d = Decoration({"f": F(1), "fp": F(4), "g": F(3), "gp": F(1)})

    def box(name):
        return StringDiagram(pg, ("w",), ("w",), ((GenCell(name),),))

    f, fp, g, gp = (box(n) for n in ("f", "fp", "g", "gp"))
    lower = tensor_diagrams(f, fp)
    upper = tensor_diagrams(g, gp)
    whole = compose_diagrams(lower, upper)
    assert decorate(whole, d, TROP) == 5
    report = check_decoration_laws(
        pg, d, TROP, [("compose", lower, upper), ("interchange", f, fp, g, gp)]
    )
    assert all(entry.passed for entry in report)
    compositor = next(e for e in report if e.law == "compositor")
    assert "5 -> 7" in compositor.details
    assert check_interchange_values(d) == (5, 7)


def check_interchange_values(d):
    lhs = max(d.value("f") + d.value("g"), d.value("fp") + d.value("gp"))
    rhs = max(d.value("f"), d.value("fp")) + max(d.value("g"), d.value("gp"))
    return lhs, rhs


def test_degenerate_identity_diagram_laws():
    pg = diagram_polygraph()
    idle = StringDiagram(pg, ("w",), ("w",), ((IdCell("w"),),))
    d = Decoration({})
    assert decorate(idle, d, TROP) == TROP.unit
    report = check_decoration_laws(pg, d, TROP, [("tensor", idle, idle), ("compose", idle, idle)])
    assert all(entry.passed for entry in report)


def test_compositor_poset_inclusion_always():
    rng = random.Random(101)
    pg = diagram_polygraph()
    for _ in range(40):
        d1 = random_diagram(rng, pg, max_instances=4)
        d2 = random_diagram(rng, pg, max_instances=4, start_width=len(d1.outputs))
        p1, _ = edge_poset(d1)
        p2, _ = edge_poset(d2)
        whole, _ = edge_poset(compose_diagrams(d1, d2))
        assert is_inclusion(whole, join(p1, p2))


def test_tropical_decorate_equals_schedule_makespan():
    rng = random.Random(103)
    pg = diagram_polygraph()
    d = Decoration({name: F(k + 1, 2) for k, name in enumerate("abcdfg")})
    for _ in range(40):
        diag = random_diagram(rng, pg)
        p, instances = edge_poset(diag)
        runtimes = [d.value(inst.name) for inst in instances]
        assert decorate(diag, d, TROP) == schedule(p, runtimes).makespan


def test_polynomial_algebra_decoration():
    alg = PolynomialAlgebra()
    pg = total_polygraph({"a": (["w"], ["w"]), "b": (["w"], ["w"])})
    stacked = StringDiagram(
        pg, ("w",), ("w",), ((GenCell("a"),), (GenCell("b"),))
    )
    d = Decoration({"a": poly(1, 0), "b": poly(2)})
    got = decorate(stacked, d, alg)
    from depcalc import compose as poly_compose

    assert signature(got) == signature(poly_compose(poly(1, 0), poly(2)))
    report = check_decoration_laws(pg, d, alg, [("tensor", stacked, stacked)])
    # tensor of two copies reuses variables; productor still holds by signature
    assert all(entry.passed for entry in report)


def test_algebra_interface_laws():
    # box on a singleton is the identity; box is monotone for holds
    rng = random.Random(109)
    trop = TropicalAlgebra()
    assert trop.box(from_pairs(1, []), [F(7, 3)]) == F(7, 3)
    palg = PolynomialAlgebra()
    for p in [poly(1, 0), poly(2), poly()]:
        assert palg.box(from_pairs(1, []), [p]) == p
    for n in range(4):
        posets = list(all_posets(n))
        for _ in range(20):
            p = rng.choice(posets)
            q = rng.choice(posets)
            if not is_inclusion(p, q):
                continue
            runtimes = [F(rng.randint(0, 9)) for _ in range(n)]
            assert trop.holds(trop.box(p, runtimes), trop.box(q, runtimes))
            parts = [rng.choice([poly(1), poly(1, 0), poly(2)]) for _ in range(n)]
            assert palg.holds(palg.box(p, parts), palg.box(q, parts))


def test_polynomial_compositor_sample():
    alg = PolynomialAlgebra()
    pg = total_polygraph({"a": (["w"], ["w"]), "b": (["w"], ["w"])})
    one = StringDiagram(pg, ("w",), ("w",), ((GenCell("a"),),))
    two = StringDiagram(pg, ("w",), ("w",), ((GenCell("b"),),))
    d = Decoration({"a": poly(1, 0), "b": poly(2)})
    report = check_decoration_laws(pg, d, alg, [("compose", one, two)])
    assert all(entry.passed for entry in report)


def test_every_small_poset_is_realized():
    for n in range(5):
        for p in all_posets(n):
            pg, diag = diagram_realizing(p)
            assert validate_diagram(pg, diag) is True
            q, instances = edge_poset(diag)
            perm = [int(inst.name[1:]) for inst in instances]
            assert act(perm, q) == p


def test_realize_zigzag():
    pg, diag = diagram_realizing(ZIGZAG)
    q, instances = edge_poset(diag)
    perm = [int(inst.name[1:]) for inst in instances]
    assert act(perm, q) == ZIGZAG


def test_layout_dag_errors():
    pg = total_polygraph({"a": (["w"], ["w"])})
    with pytest.raises(InvalidDiagram):
        layout_dag(pg, ["a"], [(0, 0, 0, 0)])  # self-loop
    with pytest.raises(InvalidDiagram, match="wiring is cyclic"):
        layout_dag(pg, ["a", "a"], [(0, 0, 1, 0), (1, 0, 0, 0)])  # two-node cycle
    with pytest.raises(InvalidDiagram):
        layout_dag(pg, ["a", "a"], [(0, 0, 1, 0)])  # node 1 output unwired... node 0 input unwired
    # u and v may both sit next to m but not next to each other, so the
    # crossing below needs a blocked (u, v) transposition
    pg2 = make_polygraph(
        ["u", "m", "v"],
        [("u", "m"), ("m", "v")],
        {"s": ([], ["u", "m", "v"]), "t": (["v", "m", "u"], [])},
    )
    with pytest.raises(InvalidDiagram):
        layout_dag(
            pg2, ["s", "t"], [(0, 0, 1, 2), (0, 1, 1, 1), (0, 2, 1, 0)]
        )


def test_random_diagrams_are_valid():
    rng = random.Random(107)
    pg = diagram_polygraph()
    for _ in range(100):
        diag = random_diagram(rng, pg)
        assert validate_diagram(pg, diag) is True
        p, instances = edge_poset(diag)
        assert p.size == len(instances) <= 8
