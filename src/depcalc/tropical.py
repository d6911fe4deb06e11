"""Critical-path dependence algebra on exact nonnegative rationals.

The n-ary operation attached to a dependency poset is the maximum over its
chains of the summed runtimes: with unlimited parallelism, that is the least
time in which the tasks can all complete while respecting the dependencies.
Arithmetic is exact (fractions.Fraction), so the algebraic laws the test
suite asserts (distributivity of sum over max, the operadic composition law)
hold as equalities rather than up to rounding.

``schedule`` realizes the optimum: every task starts the moment its last
predecessor finishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ArityError, SizeError
from .poset import FinitePoset, _mask_elements, comparability_graph, linear_extension

Runtime = Fraction

#: Widest chart ``render_gantt`` draws: a finer resolution would make a row
#: per element of this many cells, so it raises SizeError instead.
MAX_GANTT_COLUMNS = 10_000


def as_runtime(value) -> Runtime:
    """Coerce ints, decimal strings, and fractions to an exact nonnegative runtime."""
    r = Fraction(value)
    if r < 0:
        raise ValueError(f"runtimes must be nonnegative, got {value!r}")
    return r


def boxtimes(p: FinitePoset, runtimes: Sequence[Runtime]) -> Runtime:
    """Max over all chains of p of the summed runtimes (0 for the empty poset).

    Computed by a longest-path pass over a linear extension; the brute-force
    chain enumeration stays in the tests as the oracle.
    """
    if len(runtimes) != p.size:
        raise ArityError(f"expected {p.size} runtimes, got {len(runtimes)}")
    values = [as_runtime(r) for r in runtimes]
    return max(_finish_times(p, values, linear_extension(p)), default=Fraction(0))


def _finish_times(p: FinitePoset, values: list[Runtime], order) -> list[Runtime]:
    # Earliest finish of each element: the longest chain-sum ending there
    # (closure lets every predecessor stand in for the immediate ones).
    rows = p.rows
    below = [near & ~row for near, row in zip(comparability_graph(rows), rows)]
    finish = [Fraction(0)] * p.size
    for e in order:
        start = max((finish[q] for q in _mask_elements(below[e])), default=Fraction(0))
        finish[e] = start + values[e]
    return finish


@dataclass(frozen=True)
class Schedule:
    """Earliest-start schedule: finish_i = start_i + runtime_i, makespan = max finish."""

    start: tuple[Runtime, ...]
    finish: tuple[Runtime, ...]
    makespan: Runtime
    critical_chain: tuple[int, ...]


def schedule(p: FinitePoset, runtimes: Sequence[Runtime]) -> Schedule:
    """Start every task as soon as all of its predecessors have finished.

    The critical chain is the lexicographically least chain whose runtime sum
    equals the makespan (ties broken toward earlier elements, then toward
    stopping early when trailing runtimes are zero).
    """
    if len(runtimes) != p.size:
        raise ArityError(f"expected {p.size} runtimes, got {len(runtimes)}")
    values = [as_runtime(r) for r in runtimes]
    n = p.size
    if n == 0:
        return Schedule((), (), Fraction(0), ())
    order = linear_extension(p)
    finish = _finish_times(p, values, order)
    start = [f - v for f, v in zip(finish, values)]
    makespan = max(finish)

    best_from: list[Runtime | None] = [None] * n
    for e in reversed(order):
        outgoing = max((best_from[s] for s in p.above(e)), default=Fraction(0))
        best_from[e] = values[e] + outgoing

    chain: list[int] = []
    needed = makespan
    candidates = range(n)
    while True:
        nxt = min(e for e in candidates if best_from[e] == needed)
        chain.append(nxt)
        needed -= values[nxt]
        if needed == 0:
            break
        candidates = p.above(nxt)
    return Schedule(tuple(start), tuple(finish), makespan, tuple(chain))


def check_interchange(a, b, c, d) -> bool:
    """max(a+b, c+d) <= max(a,c) + max(b,d); holds for all nonnegative inputs."""
    a, b, c, d = (as_runtime(x) for x in (a, b, c, d))
    return max(a + b, c + d) <= max(a, c) + max(b, d)


def render_gantt(plan: Schedule, resolution: Runtime | int = 1) -> str:
    """Fixed-width text chart, one row per element, one column per resolution step.

    A cell is filled when the task overlaps that time window; zero-duration
    tasks mark their start instant.  Raises SizeError when the chart would
    need more than ``MAX_GANTT_COLUMNS`` columns.
    """
    res = as_runtime(resolution)
    if res == 0:
        raise ValueError("resolution must be positive")
    n = len(plan.start)
    columns = int(max(1, -(-plan.makespan // res)))
    if columns > MAX_GANTT_COLUMNS:
        raise SizeError(
            f"Gantt chart needs {columns} columns at resolution {res}; "
            f"the cap is {MAX_GANTT_COLUMNS}"
        )
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
