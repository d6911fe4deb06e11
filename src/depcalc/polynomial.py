"""Finite polynomial functors: ordered positions, each with a finite direction set.

A polynomial is stored as the tuple of its direction counts; direction sets
are always {0..d-1} and products and dependent sums use fixed row-major and
offset encodings, so every derived map is reproducible bit for bit.  The two
products are the pairwise tensor (positions pair up, directions multiply) and
substitution composition (a position plus a direction-indexed choice of next
positions; directions become dependent pairs).

Morphisms are dependent lenses: a forward map on positions and, per source
position, a backward map on the target position's directions.  ``comparitor``
and ``interchanger`` build the two canonical structure maps in that shape.

``boxtimes_poly`` generalizes composition to an arbitrary dependency poset:
positions are strategies that pick, stage by stage along a linear extension,
a position of each factor as a function of the directions chosen at the
stages it depends on.  With a chain this is exactly iterated composition;
with an antichain the choices are constants and it collapses to the iterated
pairwise tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .errors import ArityError, InvalidExtension, SizeError
from .poset import FinitePoset, _is_json_int, is_linear_extension

BOX_MAX_FACTORS = 4
BOX_MAX_POSITIONS = 4

#: Most entries ``compose`` and ``interchanger`` build; past it both raise
#: SizeError before enumerating anything.  ``compose(p, q)`` builds
#: sum(|q| ** d * max(d, 1)) entries over p's direction counts d.
MAX_COMPOSE_ENTRIES = 1 << 20


@dataclass(frozen=True)
class FinitePolynomial:
    """Direction count per position; position order is part of the value."""

    directions: tuple[int, ...]

    def __post_init__(self):
        if any(d < 0 for d in self.directions):
            raise ValueError("direction counts must be nonnegative")

    @property
    def positions(self) -> int:
        return len(self.directions)


IDENTITY = FinitePolynomial((1,))  # one position, one direction


def poly(*directions: int) -> FinitePolynomial:
    return FinitePolynomial(tuple(directions))


@dataclass(frozen=True)
class PolySignature:
    """Multiset of direction counts: the position-reordering invariant."""

    counts: tuple[int, ...]


def signature(p: FinitePolynomial) -> PolySignature:
    return PolySignature(tuple(sorted(p.directions, reverse=True)))


def dirichlet(p: FinitePolynomial, q: FinitePolynomial) -> FinitePolynomial:
    """Pairwise tensor: positions pair lexicographically, directions multiply."""
    return FinitePolynomial(tuple(dp * dq for dp in p.directions for dq in q.directions))


def compose(p: FinitePolynomial, q: FinitePolynomial) -> FinitePolynomial:
    """Substitution composite, agreeing with classical polynomial substitution.

    Positions are pairs (I, f) with f a function from I's directions to q's
    positions, enumerated I-major with f in lexicographic order; the direction
    count at (I, f) is the sum of q's counts along f.
    """
    _compose_size(p, q)
    counts = []
    nq = q.positions
    for dp in p.directions:
        for f in product(range(nq), repeat=dp):
            counts.append(sum(q.directions[j] for j in f))
    return FinitePolynomial(tuple(counts))


@dataclass(frozen=True)
class PolyMorphism:
    """Forward map on positions with a per-position backward map on directions.

    ``direction_maps[k]`` sends each direction of the target position
    ``position_map[k]`` back to a direction of source position k.
    """

    source: FinitePolynomial
    target: FinitePolynomial
    position_map: tuple[int, ...]
    direction_maps: tuple[tuple[int, ...], ...]


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
    """dirichlet(p, q) -> compose(p, q): (I, J) goes to (I, constantly J).

    The backward direction maps are identities under the fixed encodings: a
    composite direction (i, j) at a constant function has offset i*d_q(J)+j,
    the same as the row-major pair.
    """
    source = dirichlet(p, q)
    target = compose(p, q)
    nq = q.positions
    offsets = []
    acc = 0
    for dp in p.directions:
        offsets.append(acc)
        acc += nq**dp
    position_map = []
    direction_maps = []
    for i_pos, dp in enumerate(p.directions):
        for j_pos in range(nq):
            const = [j_pos] * dp
            position_map.append(offsets[i_pos] + _function_rank(const, nq))
            count = dp * q.directions[j_pos]
            direction_maps.append(tuple(range(count)))
    return PolyMorphism(source, target, tuple(position_map), tuple(direction_maps))


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


def _compose_positions(p: FinitePolynomial, q: FinitePolynomial) -> list[tuple[int, tuple[int, ...]]]:
    out = []
    for i_pos in range(p.positions):
        for f in product(range(q.positions), repeat=p.directions[i_pos]):
            out.append((i_pos, f))
    return out


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
    pq_positions = _compose_positions(p, q)
    rs_positions = _compose_positions(r, s)
    pq = compose(p, q)
    rs = compose(r, s)
    source = dirichlet(pq, rs)
    target = compose(dirichlet(p, r), dirichlet(q, s))
    qs = dirichlet(q, s)
    n_qs = qs.positions
    ns = s.positions

    # Offsets of the target's (m, g) groups: group m has n_qs**d_pr(m) members.
    pr = dirichlet(p, r)
    target_offsets = []
    acc = 0
    for d in pr.directions:
        target_offsets.append(acc)
        acc += n_qs**d

    position_map = []
    direction_maps = []
    for a, (i_pos, jf) in enumerate(pq_positions):
        for b, (k_pos, lf) in enumerate(rs_positions):
            m = i_pos * r.positions + k_pos
            g = [jf[i] * ns + lf[k] for i in range(p.directions[i_pos]) for k in range(r.directions[k_pos])]
            position_map.append(target_offsets[m] + _function_rank(g, n_qs))

            # Walk the target's directions in their dependent-pair order and
            # record the corresponding source direction.
            q_offsets = [0]
            for i in range(p.directions[i_pos]):
                q_offsets.append(q_offsets[-1] + q.directions[jf[i]])
            s_offsets = [0]
            for k in range(r.directions[k_pos]):
                s_offsets.append(s_offsets[-1] + s.directions[lf[k]])
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
    tuples consistent with those choices.  Exponential in the worst case, so
    guarded to the small scale this package targets.
    """
    if len(parts) != p.size:
        raise ArityError(f"expected {p.size} parts, got {len(parts)}")
    ell = tuple(extension)
    if not is_linear_extension(p, ell):
        raise InvalidExtension(f"{ell!r} is not a linear extension of the poset")
    if p.size > BOX_MAX_FACTORS:
        raise SizeError(f"boxtimes_poly is guarded at {BOX_MAX_FACTORS} factors")
    if any(part.positions > BOX_MAX_POSITIONS for part in parts):
        raise SizeError(f"boxtimes_poly parts are guarded at {BOX_MAX_POSITIONS} positions")

    n = p.size
    stage_poly = [parts[e] for e in ell]
    preds = [[t for t in range(k) if p.lt(ell[t], ell[k])] for k in range(n)]

    def assignments(stages: list[int], choices: list[dict]) -> list[dict[int, int]]:
        # Valid direction assignments to a predecessor-closed stage set; the
        # direction range at stage t follows from t's chosen position, which
        # is determined by the restriction to preds[t].
        result: list[dict[int, int]] = [{}]
        for t in stages:
            step: list[dict[int, int]] = []
            for asg in result:
                pos = choices[t][tuple(asg[u] for u in preds[t])]
                for d in range(stage_poly[t].directions[pos]):
                    extended = dict(asg)
                    extended[t] = d
                    step.append(extended)
            result = step
        return result

    counts: list[int] = []
    choices: list[dict] = []

    def build(k: int) -> None:
        if k == n:
            counts.append(len(assignments(list(range(n)), choices)))
            return
        domain = assignments(preds[k], choices)
        keys = [tuple(asg[u] for u in preds[k]) for asg in domain]
        for combo in product(range(stage_poly[k].positions), repeat=len(keys)):
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
