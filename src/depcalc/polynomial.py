"""Finite polynomial functors: ordered positions, each with a finite direction set.

A polynomial is stored as the tuple of its direction counts; direction sets
are always {0..d-1} and products and dependent sums use fixed row-major and
offset encodings, so every derived map is reproducible bit for bit.  The two
products are the pairwise tensor (positions pair up, directions multiply) and
substitution composition (a position plus a direction-indexed choice of next
positions; directions become dependent pairs).

Morphisms are dependent lenses: a forward map on positions and, per source
position, a backward map on the target position's directions.
``interchanger`` builds the canonical structure map in that shape, and
``comparitor`` is the interchanger with unit corners.

``boxtimes_poly`` generalizes composition to an arbitrary dependency poset:
positions are strategies that pick, stage by stage along a linear extension,
a position of each factor as a function of the directions chosen at the
stages it depends on.  With a chain this is exactly iterated composition;
with an antichain the choices are constants and it collapses to the iterated
pairwise tensor.
"""

from __future__ import annotations

from itertools import accumulate, product
from typing import Iterator, Sequence

from .errors import ArityError, InvalidExtension, SizeError
from .poset import FinitePoset, _is_json_int, is_linear_extension
from .record import Record

BOX_MAX_FACTORS = 4

#: Most entries ``dirichlet``, ``compose``, ``interchanger`` (so ``comparitor``)
#: and ``boxtimes_poly`` build; past it each raises SizeError.  The first three
#: count before enumerating: ``dirichlet(p, q)`` builds |p| * |q| positions,
#: ``compose(p, q)`` sum(|q| ** d * max(d, 1)) entries over p's direction
#: counts d.  ``boxtimes_poly``, whose size only enumerating tells, counts its
#: partial strategies and direction tuples as it builds them.
MAX_COMPOSE_ENTRIES = 1 << 20


class FinitePolynomial(Record):
    """Direction count per position; position order is part of the value."""

    __slots__ = ("directions",)

    def __init__(self, directions: tuple[int, ...]):
        if any(d < 0 for d in directions):
            raise ValueError("direction counts must be nonnegative")
        super().__init__(directions)

    @property
    def positions(self) -> int:
        return len(self.directions)


IDENTITY = FinitePolynomial((1,))  # one position, one direction


def poly(*directions: int) -> FinitePolynomial:
    return FinitePolynomial(tuple(directions))


class PolySignature(Record):
    """Multiset of direction counts: the position-reordering invariant."""

    __slots__ = ("counts",)


def signature(p: FinitePolynomial) -> PolySignature:
    return PolySignature(tuple(sorted(p.directions, reverse=True)))


def dirichlet(p: FinitePolynomial, q: FinitePolynomial) -> FinitePolynomial:
    """Pairwise tensor: positions pair lexicographically, directions multiply."""
    if p.positions * q.positions > MAX_COMPOSE_ENTRIES:
        raise SizeError(f"tensor is guarded at {MAX_COMPOSE_ENTRIES} positions")
    return FinitePolynomial(tuple(dp * dq for dp in p.directions for dq in q.directions))


def compose(p: FinitePolynomial, q: FinitePolynomial) -> FinitePolynomial:
    """Substitution composite, agreeing with classical polynomial substitution.

    Positions are pairs (I, f) with f a function from I's directions to q's
    positions, enumerated I-major with f in lexicographic order; the direction
    count at (I, f) is the sum of q's counts along f.
    """
    _compose_size(p, q)
    dq = q.directions
    return FinitePolynomial(tuple(sum(dq[j] for j in f) for _, f in _compose_positions(p, q)))


class PolyMorphism(Record):
    """Forward map on positions with a per-position backward map on directions.

    ``direction_maps[k]`` sends each direction of the target position
    ``position_map[k]`` back to a direction of source position k.
    """

    __slots__ = ("source", "target", "position_map", "direction_maps")


def is_valid_morphism(m: PolyMorphism) -> bool:
    if len(m.position_map) != m.source.positions:
        return False
    if len(m.direction_maps) != m.source.positions:
        return False
    for k, image in enumerate(m.position_map):
        if not 0 <= image < m.target.positions:
            return False
        pullback = m.direction_maps[k]
        if len(pullback) != m.target.directions[image]:
            return False
        if any(not 0 <= d < m.source.directions[k] for d in pullback):
            return False
    return True


def compose_morphisms(first: PolyMorphism, second: PolyMorphism) -> PolyMorphism:
    """Sequential composite: positions push forward, directions pull back."""
    if first.target != second.source:
        raise ValueError("morphisms are not composable")
    position_map = tuple(second.position_map[k] for k in first.position_map)
    direction_maps = []
    for k in range(first.source.positions):
        mid = first.position_map[k]
        through = second.direction_maps[mid]
        back = first.direction_maps[k]
        direction_maps.append(tuple(back[d] for d in through))
    return PolyMorphism(first.source, second.target, position_map, tuple(direction_maps))


def _function_rank(f: Sequence[int], base: int) -> int:
    rank = 0
    for value in f:
        rank = rank * base + value
    return rank


def comparitor(p: FinitePolynomial, q: FinitePolynomial) -> PolyMorphism:
    """dirichlet(p, q) -> compose(p, q): the interchanger at unit corners.

    The two products share the unit ``IDENTITY``, so p ox q is
    (p tri I) ox (I tri q) and p tri q is (p ox I) tri (I ox q): (I, J) goes
    to (I, constantly J), and every backward direction map is an identity.
    """
    return interchanger(p, IDENTITY, IDENTITY, q)


def _compose_size(p: FinitePolynomial, q: FinitePolynomial) -> tuple[int, int]:
    """(entries, directions) of ``compose(p, q)``; SizeError past ``MAX_COMPOSE_ENTRIES``.

    For nq > 1, nq**dp passes the cap once dp passes the cap's bit length, so
    such a power is never evaluated.
    """
    nq, q_total = q.positions, sum(q.directions)
    entries = directions = 0
    for dp in p.directions:
        fits = nq < 2 or dp <= MAX_COMPOSE_ENTRIES.bit_length()
        count = nq**dp if fits else MAX_COMPOSE_ENTRIES + 1
        entries += count * max(dp, 1)
        if entries > MAX_COMPOSE_ENTRIES:
            raise SizeError(f"composite is guarded at {MAX_COMPOSE_ENTRIES} entries")
        if dp:
            # Over all count functions, each direction sees every q count equally often.
            directions += dp * nq ** (dp - 1) * q_total
    return entries, directions


def _compose_positions(p: FinitePolynomial, q: FinitePolynomial) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The positions (I, f) of ``compose(p, q)`` in order: I-major, f lexicographic."""
    for i_pos, dp in enumerate(p.directions):
        for f in product(range(q.positions), repeat=dp):
            yield i_pos, f


def interchanger(
    p: FinitePolynomial, q: FinitePolynomial, r: FinitePolynomial, s: FinitePolynomial
) -> PolyMorphism:
    """dirichlet(compose(p,q), compose(r,s)) -> compose(dirichlet(p,r), dirichlet(q,s)).

    A source position pairs (I, J) with (K, L); it maps to ((I, K), J x L)
    where J x L sends a direction pair (i, k) to the position pair
    (J(i), L(k)).  Directions pull back componentwise through the offset
    encodings of both sides.
    """
    pq_entries, pq_directions = _compose_size(p, q)
    rs_entries, rs_directions = _compose_size(r, s)
    # Every pair of composite positions is visited along both functions, and
    # its direction map has one entry per direction of the pair.
    built = pq_entries * rs_entries + pq_directions * rs_directions
    if built + p.positions * r.positions + q.positions * s.positions > MAX_COMPOSE_ENTRIES:
        raise SizeError(f"interchanger is guarded at {MAX_COMPOSE_ENTRIES} entries")
    rs_positions = list(_compose_positions(r, s))
    rs = compose(r, s)
    source = dirichlet(compose(p, q), rs)
    pr, qs = dirichlet(p, r), dirichlet(q, s)
    target = compose(pr, qs)
    n_qs = qs.positions
    ns = s.positions

    # Offsets of the target's (m, g) groups: group m has n_qs**d_pr(m) members.
    target_offsets = list(accumulate((n_qs**d for d in pr.directions), initial=0))

    position_map = []
    direction_maps = []
    for i_pos, jf in _compose_positions(p, q):
        for b, (k_pos, lf) in enumerate(rs_positions):
            m = i_pos * r.positions + k_pos
            g = [jf[i] * ns + lf[k] for i in range(p.directions[i_pos]) for k in range(r.directions[k_pos])]
            position_map.append(target_offsets[m] + _function_rank(g, n_qs))

            # Walk the target's directions in their dependent-pair order and
            # record the corresponding source direction.
            q_offsets = list(accumulate((q.directions[j] for j in jf), initial=0))
            s_offsets = list(accumulate((s.directions[ell] for ell in lf), initial=0))
            rs_count = rs.directions[b]
            pullback = []
            for i in range(p.directions[i_pos]):
                for k in range(r.directions[k_pos]):
                    for j in range(q.directions[jf[i]]):
                        for ell in range(s.directions[lf[k]]):
                            da = q_offsets[i] + j
                            db = s_offsets[k] + ell
                            pullback.append(da * rs_count + db)
            direction_maps.append(tuple(pullback))
    return PolyMorphism(source, target, tuple(position_map), tuple(direction_maps))


def boxtimes_poly(
    p: FinitePoset, parts: Sequence[FinitePolynomial], extension: Sequence[int]
) -> FinitePolynomial:
    """Poset-indexed product: strategies over the dependency structure.

    A position is a family assigning, to stage k of the extension, a position
    of that stage's factor as a function of the directions chosen at its
    dependency-predecessor stages; its directions are the full direction
    tuples consistent with those choices.  Exponential, so capped at
    ``BOX_MAX_FACTORS`` factors and ``MAX_COMPOSE_ENTRIES`` entries built.
    """
    if len(parts) != p.size:
        raise ArityError(f"expected {p.size} parts, got {len(parts)}")
    ell = tuple(extension)
    if not is_linear_extension(p, ell):
        raise InvalidExtension(f"{ell!r} is not a linear extension of the poset")
    if p.size > BOX_MAX_FACTORS:
        raise SizeError(f"boxtimes_poly is guarded at {BOX_MAX_FACTORS} factors")

    n = p.size
    stage_poly = [parts[e] for e in ell]
    preds = [[t for t in range(k) if p.lt(ell[t], ell[k])] for k in range(n)]
    built = [0]  # partial strategies and direction tuples so far
    counts: list[int] = []
    choices: list[dict] = []

    def count(entries: int) -> None:
        built[0] += entries
        if built[0] > MAX_COMPOSE_ENTRIES:
            raise SizeError(f"boxtimes_poly is guarded at {MAX_COMPOSE_ENTRIES} entries")

    def assignments(stages) -> list[tuple[int, ...]]:
        # Valid direction tuples over a predecessor-closed stage list, in its
        # order: stage t's range follows from the position chosen for the
        # directions at preds[t].  Each step is counted before it is built.
        at = {u: i for i, u in enumerate(stages)}
        result: list[tuple[int, ...]] = [()]
        for t in stages:
            step: list[tuple[int, ...]] = []
            for asg in result:
                directions = stage_poly[t].directions[choices[t][tuple(asg[at[u]] for u in preds[t])]]
                count(directions)
                step += [asg + (d,) for d in range(directions)]
            result = step
        return result

    def build(k: int) -> None:
        if k == n:
            counts.append(len(assignments(range(n))))
            return
        keys = assignments(preds[k])
        for combo in product(range(stage_poly[k].positions), repeat=len(keys)):
            count(1)
            choices.append(dict(zip(keys, combo)))
            build(k + 1)
            choices.pop()

    build(0)
    return FinitePolynomial(tuple(counts))


def format_polynomial(p: FinitePolynomial) -> str:
    """Human form of the signature, e.g. 'y^2 + 2y + 1'."""
    if not p.directions:
        return "0"
    terms: dict[int, int] = {}
    for d in p.directions:
        terms[d] = terms.get(d, 0) + 1
    pieces = []
    for exponent in sorted(terms, reverse=True):
        coeff = terms[exponent]
        if exponent == 0:
            pieces.append(str(coeff))
        else:
            power = "y" if exponent == 1 else f"y^{exponent}"
            pieces.append(power if coeff == 1 else f"{coeff}{power}")
    return " + ".join(pieces)


def to_json_dict(p: FinitePolynomial) -> dict:
    return {"positions": list(p.directions)}


def from_json_dict(data: dict) -> FinitePolynomial:
    if not isinstance(data, dict) or "positions" not in data:
        raise ValueError("polynomial JSON must be an object with a 'positions' field")
    counts = data["positions"]
    if not isinstance(counts, list) or any(not _is_json_int(d) or d < 0 for d in counts):
        raise ValueError("'positions' must be a list of nonnegative direction counts")
    return FinitePolynomial(tuple(counts))
