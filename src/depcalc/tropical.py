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

import sys
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import ArityError, SizeError
from .poset import FinitePoset, _cover_lists, _extensions
from .record import Record

Runtime = Fraction

#: Widest chart ``render_gantt`` draws: a finer resolution would make a row
#: per element of this many cells, so it raises SizeError instead.
MAX_GANTT_COLUMNS = 10_000

#: Largest exponent magnitude ``as_runtime`` accepts in decimal text (4,300):
#: a larger power of ten passes Python's int-to-text digit limit anyway.
MAX_RUNTIME_EXPONENT = sys.int_info.default_max_str_digits

#: Runtime types ``_ticks`` reads directly, matched by exact type: ``bool``,
#: a subclass of ``int``, is not a runtime.
_EXACT = (int, Fraction)


def as_runtime(value) -> Runtime:
    """Coerce ints, decimal strings, and fractions to an exact nonnegative runtime."""
    if isinstance(value, bool):  # JSON true/false load as bool, a subclass of int
        raise ValueError(f"not a runtime: {value!r}")
    if isinstance(value, str):  # refuse a huge exponent before Fraction raises 10 to it
        _, marker, exponent = value.lower().rpartition("e")
        digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        if marker and digits.isdecimal():
            if len(digits) > 5 or int(digits) > MAX_RUNTIME_EXPONENT:
                raise ValueError(f"runtime exponent past {MAX_RUNTIME_EXPONENT}: {value!r}")
    try:
        r = Fraction(value)
    except (ZeroDivisionError, OverflowError) as err:  # "1/0", float("inf")
        raise ValueError(f"not a runtime: {value!r}") from err
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
    ticks, scale = _ticks(runtimes)
    covers = _cover_lists(p)
    finish = _finish_ticks(covers, ticks, next(_extensions(covers)))
    return Fraction(max(finish, default=0), scale)


def _ticks(runtimes: Sequence[Runtime]) -> tuple[list[int], int]:
    """The runtimes as whole ticks of 1/scale, scale the lcm of their denominators.

    A nonnegative ``int`` or ``Fraction`` is read as it stands; every other
    value, a negative one included, goes through ``as_runtime``, which
    converts it or raises.
    """
    nums, dens = [], []
    for r in runtimes:
        if type(r) not in _EXACT or r.numerator < 0:
            r = as_runtime(r)
        nums.append(r.numerator)
        dens.append(r.denominator)
    scale = lcm(*dens)
    if scale == 1:
        return nums, 1
    return [num * (scale // den) for num, den in zip(nums, dens)], scale


def _finish_ticks(covers: list[tuple[int, ...]], ticks: list[int], order) -> list[int]:
    # Earliest finish of each element: the longest chain-sum ending there.
    # Every related pair is a chain of covers, so pushing each finish to the
    # elements covering it reaches every successor.
    start = [0] * len(ticks)
    finish = [0] * len(ticks)
    for e in order:
        done = finish[e] = start[e] + ticks[e]
        for up in covers[e]:
            if start[up] < done:
                start[up] = done
    return finish


class Schedule(Record):
    """Earliest-start schedule: finish_i = start_i + runtime_i, makespan = max finish."""

    __slots__ = ("start", "finish", "makespan", "critical_chain")


def schedule(p: FinitePoset, runtimes: Sequence[Runtime]) -> Schedule:
    """Start every task as soon as all of its predecessors have finished.

    The critical chain is the lexicographically least chain whose runtime sum
    equals the makespan (ties broken toward earlier elements, then toward
    stopping early when trailing runtimes are zero).  The passes run over
    cover pairs in whole ticks; only the fields are fractions.
    """
    if len(runtimes) != p.size:
        raise ArityError(f"expected {p.size} runtimes, got {len(runtimes)}")
    n = p.size
    if n == 0:
        return Schedule((), (), Fraction(0), ())
    ticks, scale = _ticks(runtimes)
    covers = _cover_lists(p)
    order = next(_extensions(covers))
    finish = _finish_ticks(covers, ticks, order)
    makespan = max(finish)

    best_from = [0] * n
    reaching: dict[int, int] = {}  # longest chain onward -> mask of elements
    for e in reversed(order):
        onward = max(map(best_from.__getitem__, covers[e]), default=0)
        best = best_from[e] = ticks[e] + onward
        reaching[best] = reaching.get(best, 0) | 1 << e

    chain: list[int] = []
    needed = makespan
    candidates = (1 << n) - 1
    while True:
        # The least candidate whose longest chain onward is what remains; one
        # exists, since needed is the best over the candidates while positive.
        hits = candidates & reaching[needed]
        nxt = (hits & -hits).bit_length() - 1
        chain.append(nxt)
        needed -= ticks[nxt]
        if needed == 0:
            break
        candidates = p.rows[nxt]
    return Schedule(
        tuple(Fraction(f - t, scale) for f, t in zip(finish, ticks)),
        tuple(Fraction(f, scale) for f in finish),
        Fraction(makespan, scale),
        tuple(chain),
    )


def check_interchange(a, b, c, d) -> bool:
    """max(a+b, c+d) <= max(a,c) + max(b,d); holds for all nonnegative inputs."""
    a, b, c, d = (as_runtime(x) for x in (a, b, c, d))
    return max(a + b, c + d) <= max(a, c) + max(b, d)


def render_gantt(plan: Schedule, resolution: Runtime | int | str = 1) -> str:
    """Fixed-width text chart, one row per element, one column per resolution step.

    A cell is filled when the task overlaps that time window; zero-duration
    tasks mark their start instant.  Raises SizeError when the chart would
    need more than ``MAX_GANTT_COLUMNS`` columns.
    """
    try:
        res = as_runtime(resolution)
    except ValueError:  # negative or unreadable: named as the resolution, not a runtime
        res = 0
    if res == 0:
        raise ValueError(f"resolution must be a positive number, got {resolution!r}")
    n = len(plan.start)
    columns = int(max(1, -(-plan.makespan // res)))
    if columns > MAX_GANTT_COLUMNS:
        raise SizeError(
            f"Gantt chart needs {columns} columns at resolution {res}; "
            f"the cap is {MAX_GANTT_COLUMNS}"
        )
    width = len(str(n - 1)) if n else 1
    lines = []
    for e, (start, finish) in enumerate(zip(plan.start, plan.finish)):
        # Window c, [c * res, (c + 1) * res), overlaps the task exactly when
        # start // res <= c < ceil(finish / res).  A zero-length task on a
        # window's left edge overlaps none and marks that window instead.
        if start == finish and start % res == 0:
            first, end, mark = start // res, start // res + 1, "|"
        else:
            first, end, mark = start // res, -(-finish // res), "#"
        first = min(max(first, 0), columns)
        end = min(max(end, first), columns)
        cells = "." * first + mark * (end - first) + "." * (columns - end)
        lines.append(f"{e:>{width}} [{cells}]")
    return "\n".join(lines)
