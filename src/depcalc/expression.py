"""Terms over the two juxtaposition operators, in canonical normal form.

An expression is built from the nullary unit, variables, an unordered n-ary
independent product (``ox``) and an ordered n-ary dependent product (``tri``).
Each variable may appear at most once.  The constructors normalize as they
build: nested products of the same kind are flattened, units are absorbed,
and ox children are sorted by least variable index, so two expressions denote
the same poset exactly when they are equal values.

Text syntax (parse/format): ``e`` for the unit, ``x<i>`` for variable i,
``(ox e1 e2 ...)`` and ``(tri e1 e2 ...)``, nested at most ``MAX_NESTING``
parentheses deep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from .errors import MalformedExpression
from .poset import FinitePoset, _mask_elements


@dataclass(frozen=True)
class Unit:
    def __repr__(self):
        return "Unit"


@dataclass(frozen=True)
class Var:
    index: int

    def __repr__(self):
        return f"Var({self.index})"


@dataclass(frozen=True)
class Otimes:
    children: tuple["Expression", ...]

    def __repr__(self):
        return f"Otimes{self.children!r}"


@dataclass(frozen=True)
class Tri:
    children: tuple["Expression", ...]

    def __repr__(self):
        return f"Tri{self.children!r}"


Expression = Union[Unit, Var, Otimes, Tri]

UNIT = Unit()

#: Deepest parenthesis nesting ``parse_expression`` accepts.  Every pass over a
#: term recurses once per level; this keeps a parsed term well inside
#: Python's default recursion limit even when ox and tri alternate, so that
#: no level flattens into its parent.
MAX_NESTING = 200


def variables(expr: Expression) -> tuple[int, ...]:
    """Sorted variable indices; raises MalformedExpression on a repeat."""
    seen: list[int] = []
    _collect_vars(expr, seen)
    ordered = sorted(seen)
    for a, b in zip(ordered, ordered[1:]):
        if a == b:
            raise MalformedExpression(f"variable x{a} appears more than once")
    return tuple(ordered)


def _collect_vars(expr: Expression, out: list[int]) -> None:
    if isinstance(expr, Var):
        out.append(expr.index)
    elif isinstance(expr, (Otimes, Tri)):
        for child in expr.children:
            _collect_vars(child, out)


def _min_var(expr: Expression) -> int:
    if isinstance(expr, Var):
        return expr.index
    if isinstance(expr, (Otimes, Tri)):
        return min(_min_var(c) for c in expr.children)
    raise MalformedExpression("unit has no variables to sort by")


def ox(*parts: Expression) -> Expression:
    """Independent product; flattens, absorbs units, sorts by least variable."""
    flat: list[Expression] = []
    for part in parts:
        if isinstance(part, Unit):
            continue
        if isinstance(part, Otimes):
            flat.extend(part.children)
        else:
            flat.append(part)
    if not flat:
        return UNIT
    if len(flat) == 1:
        return flat[0]
    flat.sort(key=_min_var)
    result = Otimes(tuple(flat))
    variables(result)
    return result


def tri(*parts: Expression) -> Expression:
    """Dependent product, earlier arguments first; flattens and absorbs units."""
    flat: list[Expression] = []
    for part in parts:
        if isinstance(part, Unit):
            continue
        if isinstance(part, Tri):
            flat.extend(part.children)
        else:
            flat.append(part)
    if not flat:
        return UNIT
    if len(flat) == 1:
        return flat[0]
    result = Tri(tuple(flat))
    variables(result)
    return result


def normalize(expr: Expression) -> Expression:
    """Canonical normal form of an arbitrary well-formed term tree."""
    if isinstance(expr, (Unit, Var)):
        return expr
    if isinstance(expr, Otimes):
        return ox(*(normalize(c) for c in expr.children))
    if isinstance(expr, Tri):
        return tri(*(normalize(c) for c in expr.children))
    raise MalformedExpression(f"not an expression node: {expr!r}")


def is_normal(expr: Expression) -> bool:
    """True iff the term is already in canonical normal form."""
    return normalize(expr) == expr


@lru_cache(maxsize=None)
def evaluate_labeled(expr: Expression) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Interpret the term over its own variable labels.

    Returns ``(rows, labels)``: the sorted label tuple and, aligned with it,
    the mask of labels strictly above each label (bit v stands for x<v>).
    Variables become singletons, ox disjoint union, tri join, unit the empty
    poset.
    """
    labels = variables(expr)
    up = dict.fromkeys(labels, 0)
    _eval_into(expr, up)
    return tuple(up[v] for v in labels), labels


def _eval_into(expr: Expression, up: dict[int, int]) -> int:
    # Adds the term's relation to ``up`` and returns the mask of its labels;
    # the labels are distinct, so the children's masks are disjoint.
    if isinstance(expr, Unit):
        return 0
    if isinstance(expr, Var):
        return 1 << expr.index
    blocks = [_eval_into(c, up) for c in expr.children]
    if isinstance(expr, Tri):
        later = 0
        for block in reversed(blocks):
            for v in _mask_elements(block):
                up[v] |= later
            later |= block
    return sum(blocks)


def evaluate(expr: Expression) -> FinitePoset:
    """The poset denoted by a normal-form expression on variables 0..n-1.

    Element i of the result corresponds to variable x<i>.
    """
    if not is_normal(expr):
        raise MalformedExpression("expression is not in canonical normal form")
    rows, labels = evaluate_labeled(expr)
    if labels != tuple(range(len(labels))):
        raise MalformedExpression(f"variables {labels} are not contiguous from 0")
    return FinitePoset(len(labels), rows)


# ---------------------------------------------------------------------------
# Text syntax

def format_expression(expr: Expression) -> str:
    if isinstance(expr, Unit):
        return "e"
    if isinstance(expr, Var):
        return f"x{expr.index}"
    head = "ox" if isinstance(expr, Otimes) else "tri"
    return f"({head} " + " ".join(format_expression(c) for c in expr.children) + ")"


def parse_expression(text: str) -> Expression:
    """Parse the s-expression syntax, normalizing as it builds."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    depth = 0
    for tok in tokens:
        depth += (tok == "(") - (tok == ")")
        if depth > MAX_NESTING:
            raise MalformedExpression(f"expression nests deeper than {MAX_NESTING} parentheses")
    pos = 0

    def parse_one() -> Expression:
        nonlocal pos
        if pos >= len(tokens):
            raise MalformedExpression("unexpected end of expression")
        tok = tokens[pos]
        pos += 1
        if tok == "e":
            return UNIT
        if tok.startswith("x") and tok[1:].isdigit():
            return Var(int(tok[1:]))
        if tok == "(":
            if pos >= len(tokens) or tokens[pos] not in ("ox", "tri"):
                raise MalformedExpression("expected 'ox' or 'tri' after '('")
            head = tokens[pos]
            pos += 1
            children = []
            while pos < len(tokens) and tokens[pos] != ")":
                children.append(parse_one())
            if pos >= len(tokens):
                raise MalformedExpression("missing ')'")
            pos += 1
            return ox(*children) if head == "ox" else tri(*children)
        raise MalformedExpression(f"unexpected token {tok!r}")

    expr = parse_one()
    if pos != len(tokens):
        raise MalformedExpression(f"trailing tokens after expression: {tokens[pos:]}")
    variables(expr)
    return expr
