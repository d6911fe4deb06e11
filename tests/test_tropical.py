import random
from decimal import Decimal
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depcalc import (
    ArityError,
    SizeError,
    ZIGZAG,
    Schedule,
    antichain,
    boxtimes,
    chain,
    check_interchange,
    decompose,
    empty,
    from_pairs,
    is_inclusion,
    mu,
    schedule,
)
from depcalc.expression import Otimes, Tri, Unit, Var
from depcalc.tropical import MAX_GANTT_COLUMNS, _ticks, as_runtime, render_gantt

from conftest import (
    all_posets,
    buildable_posets,
    chain_sum_boxtimes,
    dual_shapes,
    gantt_per_cell,
    opposite,
    random_runtime,
)

TWO_CHAINS = from_pairs(4, [(0, 1), (2, 3)])

rationals = st.fractions(min_value=0, max_value=30)


def test_boxtimes_examples():
    assert boxtimes(TWO_CHAINS, [F(1), F(3), F(4), F(1)]) == 5
    assert boxtimes(antichain(3), [F(2), F(7), F(1)]) == 7
    assert boxtimes(chain(3), [F(2), F(7), F(1)]) == 10
    assert boxtimes(ZIGZAG, [F(1), F(3), F(4), F(1)]) == 7
    assert boxtimes(empty(), []) == 0
    assert boxtimes(from_pairs(1, []), [F("5/2")]) == F("5/2")


def test_boxtimes_arity_and_negativity():
    with pytest.raises(ArityError):
        boxtimes(chain(2), [F(1)])
    with pytest.raises(ValueError):
        boxtimes(chain(1), [F(-1)])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_boxtimes_matches_chain_enumeration(data):
    n = data.draw(st.integers(min_value=0, max_value=4))
    p = data.draw(st.sampled_from(list(all_posets(n))))
    values = [data.draw(rationals) for _ in range(n)]
    assert boxtimes(p, values) == chain_sum_boxtimes(p, values)


def test_monotone_under_inclusion():
    rng = random.Random(13)
    for n in range(4):
        posets = list(all_posets(n))
        for p in posets:
            for q in posets:
                if is_inclusion(p, q):
                    values = [random_runtime(rng) for _ in range(n)]
                    assert boxtimes(p, values) <= boxtimes(q, values)


def test_operadic_composition_sample():
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(0, 3)
        p = rng.choice(list(all_posets(n)))
        parts = [rng.choice(list(all_posets(rng.randint(0, 3)))) for _ in range(n)]
        flat = [random_runtime(rng) for _ in range(sum(q.size for q in parts))]
        blockwise = []
        offset = 0
        for q in parts:
            blockwise.append(boxtimes(q, flat[offset : offset + q.size]))
            offset += q.size
        assert boxtimes(mu(p, parts), flat) == boxtimes(p, blockwise)


def test_expression_agreement():
    # an expressible poset's value is its expression evaluated with max/plus
    def eval_tropical(expr, values):
        if isinstance(expr, Unit):
            return F(0)
        if isinstance(expr, Var):
            return values[expr.index]
        child = [eval_tropical(c, values) for c in expr.children]
        if isinstance(expr, Otimes):
            return max(child)
        assert isinstance(expr, Tri)
        return sum(child, F(0))

    rng = random.Random(31)
    for n in range(6):
        for p in buildable_posets(n):
            values = [random_runtime(rng) for _ in range(n)]
            assert boxtimes(p, values) == eval_tropical(decompose(p), values)


def test_schedule_zigzag():
    plan = schedule(ZIGZAG, [F(1), F(3), F(4), F(1)])
    assert plan.start == (F(0), F(4), F(0), F(4))
    assert plan.finish == (F(1), F(7), F(4), F(5))
    assert plan.makespan == 7
    assert plan.critical_chain == (2, 1)


def test_schedule_degenerate_shapes():
    plan = schedule(antichain(3), [F(1), F(2), F(3)])
    assert plan.start == (F(0), F(0), F(0))
    for x, y, z in ((F(2), F("1/2"), F(4)), (F(1, 3), F(1, 7), as_runtime("0.1"))):
        plan = schedule(chain(3), [x, y, z])
        assert plan.start == (F(0), x, x + y)
        assert plan.finish == (x, x + y, x + y + z)
        assert plan.makespan == x + y + z and plan.critical_chain == (0, 1, 2)
        assert all(type(t) is F for t in plan.start + plan.finish + (plan.makespan,))
    assert schedule(empty(), []).makespan == 0


def test_schedule_zero_runtimes_critical_chain():
    plan = schedule(antichain(2), [F(0), F(0)])
    assert plan.makespan == 0
    assert plan.critical_chain == (0,)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_schedule_consistency(data):
    n = data.draw(st.integers(min_value=0, max_value=5))
    p = data.draw(st.sampled_from(list(all_posets(n)))) if n else empty()
    values = [data.draw(rationals) for _ in range(n)]
    plan = schedule(p, values)
    assert plan.makespan == boxtimes(p, values)
    for i, j in p.pairs():
        assert plan.start[j] >= plan.finish[i]
    for e in range(n):
        assert plan.finish[e] == plan.start[e] + values[e]
    got = sum((values[e] for e in plan.critical_chain), F(0))
    assert got == plan.makespan
    for a, b in zip(plan.critical_chain, plan.critical_chain[1:]):
        assert p.lt(a, b)


def test_schedule_makespan_of_the_opposite():
    # A longest chain read backwards is a longest chain of the opposite.
    rng = random.Random(20261021)
    for p in dual_shapes():
        runtimes = [random_runtime(rng) for _ in range(p.size)]
        assert schedule(opposite(p), runtimes).makespan == schedule(p, runtimes).makespan


def test_check_interchange_examples():
    assert check_interchange(1, 3, 4, 1)
    assert check_interchange(0, 0, 0, 0)


@settings(max_examples=200, deadline=None)
@given(rationals, rationals, rationals, rationals)
def test_check_interchange_always(a, b, c, d):
    assert check_interchange(a, b, c, d)
    # and the underlying inequality is what it claims
    assert max(a + b, c + d) <= max(a, c) + max(b, d)


def test_as_runtime_parses_decimal_strings_exactly():
    assert as_runtime("0.1") == F(1, 10)
    assert as_runtime("7") == 7
    for bad in ("-2", "1/0", float("inf"), True, False):  # JSON true/false are not runtimes
        with pytest.raises(ValueError):
            as_runtime(bad)


def _ticks_through_as_runtime(runtimes):
    values = [as_runtime(r) for r in runtimes]
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def test_ticks_read_ints_and_fractions_as_as_runtime_does():
    for runtimes in ([], [0, 3, 9], [F(1, 3), 2, F(5, 2)], ["0.1", 4, F(3, 4)], [F(6, 3), 0],
                     [Decimal("1.5"), 1, 0.25, "7/3"], [10 ** 30, F(1, 10 ** 20)]):
        ticks, scale = _ticks(runtimes)
        assert (ticks, scale) == _ticks_through_as_runtime(runtimes)
        assert all(type(t) is int for t in ticks) and type(scale) is int
    for runtimes in ([True], [1, False], [-1], [2, F(-1, 2)], ["-2"], [3, "-0.5"],
                     [1, "1/0"], [F(1), float("inf")], [0, -3, True]):
        with pytest.raises(ValueError) as mine:
            _ticks(runtimes)
        with pytest.raises(ValueError) as reference:
            _ticks_through_as_runtime(runtimes)
        assert str(mine.value) == str(reference.value)


def test_gantt_render():
    plan = schedule(TWO_CHAINS, [F(1), F(3), F(4), F(1)])
    art = render_gantt(plan)
    lines = art.splitlines()
    assert len(lines) == 4
    assert lines[0].endswith("[#....]")
    assert lines[2].endswith("[####.]")
    half = render_gantt(plan, F("1/2"))
    assert half.splitlines()[0].endswith("[##........]")


def test_gantt_matches_the_per_cell_oracle():
    rng = random.Random(47)
    resolutions = [F(1), F(1, 2), F(3, 5), F(2), F(1, 3), F(7, 4)]
    for _ in range(400):
        n = rng.randint(0, 5)
        p = rng.choice(all_posets(n))
        res = rng.choice(resolutions)
        # Multiples of the resolution put starts and zero-length tasks on
        # window edges; the other runtimes put them inside windows.
        values = [
            rng.choice([F(0), F(0), res * rng.randint(1, 3), random_runtime(rng)])
            for _ in range(n)
        ]
        plan = schedule(p, values)
        assert render_gantt(plan, res) == gantt_per_cell(plan, res)
    # Zero-length tasks on a left edge, inside a window, at the makespan and
    # at time 0 of an empty chart.
    plan = Schedule((F(0), F(1), F(3, 2), F(2)), (F(1), F(1), F(3, 2), F(2)), F(2), (0,))
    assert render_gantt(plan) == gantt_per_cell(plan, F(1)) == "0 [#.]\n1 [.|]\n2 [.#]\n3 [..]"
    plan = schedule(antichain(2), [F(0), F(0)])
    assert render_gantt(plan, F(1, 2)) == gantt_per_cell(plan, F(1, 2)) == "0 [|]\n1 [|]"


def test_gantt_at_the_column_cap_matches_the_oracle():
    plan = schedule(chain(3), [F(1, 4), F(0), F(3, 4)])
    res = F(1, MAX_GANTT_COLUMNS)
    art = render_gantt(plan, res)
    assert art == gantt_per_cell(plan, res)
    assert art.splitlines()[1] == "1 [" + "." * 2500 + "|" + "." * 7499 + "]"


def test_gantt_names_a_bad_resolution_as_the_resolution():
    # Zero, negative and unreadable resolutions all get the one message; a
    # negative one is not reported as a runtime.
    plan = schedule(chain(1), [F(1)])
    for resolution in (0, F(0), -1, F(-1, 2), "-1", "abc", "1/0", "0"):
        with pytest.raises(ValueError) as err:
            render_gantt(plan, resolution)
        assert str(err.value) == f"resolution must be a positive number, got {resolution!r}"
    assert render_gantt(plan, "1/2") == render_gantt(plan, F(1, 2)) == "0 [##]"


def test_gantt_column_cap():
    plan = schedule(chain(1), [F(1)])
    widest = render_gantt(plan, F(1, MAX_GANTT_COLUMNS))
    assert widest == "0 [" + "#" * MAX_GANTT_COLUMNS + "]"
    with pytest.raises(SizeError):
        render_gantt(plan, F(1, MAX_GANTT_COLUMNS + 1))
