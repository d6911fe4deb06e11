"""Terms over the two juxtaposition operators, in canonical normal form.

An expression is built from the nullary unit, variables, an unordered n-ary
independent product (``ox``) and an ordered n-ary dependent product (``tri``).
Each variable may appear at most once: the node constructors reject a product
whose children share a variable.  The normalizing constructors ``ox`` and
``tri`` flatten nested products of the same kind, absorb units and sort ox
children by least variable index, so two expressions denote the same poset
exactly when they are equal values.

Terms are hash-consed (Filliâtre & Conchon, "Type-safe modular
hash-consing", 2006): ``Var``, ``Otimes`` and ``Tri`` construct through one
weak-valued table keyed by the kind and the children tuple, and
``Unit()`` is ``UNIT``, so equal terms are one object, and a term hashes
and compares by identity, in C.  A term is freed with its last outside
reference, and its table entry with it.  Nodes are immutable ``__slots__``
objects; each carries ``mask``, with bit v set for every variable x<v> in
it, and ``low``, its least variable, taken from a child, which ``ox`` sorts
by.  So building, hashing and the linearity check cost O(children) per
node, and nothing walks a subterm again.  A node's last slot, ``_text``,
holds its ``format_expression`` text once something has composed it: a
variable's and the unit's are set as they are built, and a product's is
filled by ``structure_maps`` from its children's as a proof first prints
it.  Like any attribute memoized on a hash-consed value (as in that paper),
a text lives exactly as long as its term.  ``format_expression`` itself
keeps no texts, so formatting a deep term retains nothing.

Text syntax (parse/format): ``e`` for the unit, ``x<i>`` for variable i
(ASCII digits only), ``(ox e1 e2 ...)`` and ``(tri e1 e2 ...)``, nested to
any depth (both run on explicit stacks), with i below ``poset.MAX_ELEMENTS``.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Union
from weakref import ref

from .errors import MalformedExpression
from .poset import MAX_ELEMENTS, FinitePoset, _mask_elements
from .record import Immutable

_set = object.__setattr__
_low = attrgetter("low")


class _Entry(ref):
    """Weak reference from the intern table to a node, holding its key."""

    __slots__ = ("key",)


#: The intern table: (kind, variable index) or (kind, children) to a weak
#: reference to the one live node.  Children are interned, so two children
#: tuples are equal exactly when they hold the same objects, and a key shares
#: its node's children tuple.  An entry lives as long as its node, so its key
#: keeps alive nothing the node does not already hold.
_TABLE: dict[tuple, _Entry] = {}


def _forget(entry: _Entry, table=_TABLE) -> None:
    # Called as an interned node dies.  A node interned since under the same
    # key keeps its entry.
    if table.get(entry.key) is entry:
        del table[entry.key]


def _intern(key: tuple, node: "_Term") -> None:
    entry = _TABLE[key] = _Entry(node, _forget)
    entry.key = key


class _Term(Immutable):
    """Term node: ``mask`` of its variables, ``low``, the least; identity-hashed.

    ``_text`` is the term's ``format_expression`` text once it is known: set
    as a variable or the unit is built, left ``None`` on a product until
    ``structure_maps`` composes it from its children's.
    """

    __slots__ = ("mask", "low", "_text", "__weakref__")


class Unit(_Term):
    __slots__ = ()

    def __new__(cls):
        return UNIT

    def __reduce__(self):
        return Unit, ()

    def __repr__(self):
        return "Unit"


class Var(_Term):
    __slots__ = ("index",)

    def __new__(cls, index: int):
        key = (cls, index)
        entry = _TABLE.get(key)
        node = entry and entry()
        if node is None:
            if index < 0:
                raise MalformedExpression(f"variable index {index} is negative")
            node = object.__new__(cls)
            _set(node, "index", index)
            _set(node, "mask", 1 << index)
            _set(node, "low", index)
            _set(node, "_text", f"x{index}")
            _intern(key, node)
        return node

    def __reduce__(self):
        return Var, (self.index,)

    def __repr__(self):
        return f"Var({self.index})"


class _Product(_Term):
    __slots__ = ("children",)

    def __new__(cls, children: tuple["Expression", ...]):
        children = tuple(children)
        key = (cls, children)
        entry = _TABLE.get(key)
        node = entry and entry()
        if node is None:
            mask = repeated = 0
            for child in children:
                repeated |= mask & child.mask
                mask |= child.mask
            if repeated:
                v = (repeated & -repeated).bit_length() - 1
                raise MalformedExpression(f"variable x{v} appears more than once")
            # A child's own int, so the slot allocates none; a unit child's -1
            # (hand-built terms only) takes the long way.
            low = min(map(_low, children), default=-1)
            if low < 0 < mask:
                low = min(child.low for child in children if child.mask)
            node = object.__new__(cls)
            _set(node, "children", children)
            _set(node, "mask", mask)
            _set(node, "low", low)
            _set(node, "_text", None)
            _intern(key, node)
        return node

    def __reduce__(self):
        return type(self), (self.children,)


class Otimes(_Product):
    __slots__ = ()

    def __repr__(self):
        return f"Otimes{self.children!r}"


class Tri(_Product):
    __slots__ = ()

    def __repr__(self):
        return f"Tri{self.children!r}"


Expression = Union[Unit, Var, Otimes, Tri]

UNIT = object.__new__(Unit)
_set(UNIT, "mask", 0)
_set(UNIT, "low", -1)
_set(UNIT, "_text", "e")

def variables(expr: Expression) -> tuple[int, ...]:
    """Sorted variable indices."""
    return _mask_elements(expr.mask)


def _product(kind: type, parts, key) -> Expression:
    """The normal-form ``kind`` product: flattens, absorbs units, sorts by ``key``."""
    flat: list[Expression] = []
    for part in parts:
        cls = type(part)
        if cls is kind:
            flat.extend(part.children)
        elif cls is not Unit:
            flat.append(part)
    if not flat:
        return UNIT
    if len(flat) == 1:
        return flat[0]
    if key is not None:
        flat.sort(key=key)
    return kind(tuple(flat))


def ox(*parts: Expression) -> Expression:
    """Independent product; flattens, absorbs units, sorts by least variable."""
    return _product(Otimes, parts, _low)


def tri(*parts: Expression) -> Expression:
    """Dependent product, earlier arguments first; flattens and absorbs units."""
    return _product(Tri, parts, None)


def normalize(expr: Expression) -> Expression:
    """Canonical normal form of an arbitrary well-formed term tree.

    Rebuilt children first, each product through ``ox`` or ``tri``, from an
    explicit stack, so depth costs no recursion.  A normal term is rebuilt
    from the same children in the same order, so interning returns it.
    """
    done: list[Expression] = []  # normal forms of the terms visited, in visit order
    todo: list = [expr]  # terms to normalize and (constructor, arity) to rebuild
    while todo:
        node = todo.pop()
        if type(node) is tuple:
            make, arity = node
            cut = len(done) - arity
            parts = done[cut:]
            del done[cut:]
            done.append(make(*parts))
        elif isinstance(node, _Product):
            todo.append((ox if isinstance(node, Otimes) else tri, len(node.children)))
            todo.extend(reversed(node.children))
        elif isinstance(node, (Unit, Var)):
            done.append(node)
        else:
            raise MalformedExpression(f"not an expression node: {node!r}")
    return done[0]


def is_normal(expr: Expression) -> bool:
    """True iff the term is already in canonical normal form: ``normalize`` returns it."""
    return normalize(expr) is expr


def up_sets(expr: Expression, memo: dict | None = None) -> dict[int, int]:
    """Interpret the term over its own variable labels: the one evaluator.

    Returns, per variable x<v> of the term, the mask of variables strictly
    above it.  A fold: a variable is a singleton, ox merges its children's
    maps (disjoint union), tri also puts each child below the variables of
    the children after it (join), and the unit is empty.  With a ``memo``
    (product term to map, shared across calls), each distinct product is
    folded once; without one, a child's map is dropped once its parent's is
    built.  The fold runs from an explicit stack, so depth costs no recursion.
    """
    if not isinstance(expr, _Product):
        return {expr.index: 0} if type(expr) is Var else {}
    up = None if memo is None else memo.get(expr)
    if up is not None:
        return up
    done: list[dict] = []  # maps of the products folded so far, in fold order
    todo: list = [expr]  # products to fold and (product,) to combine
    while todo:
        node = todo.pop()
        if type(node) is tuple:
            (node,) = node
            up: dict = {}
            later = 0
            for kid in reversed(node.children):
                if type(kid) is Var:
                    up[kid.index] = later
                elif isinstance(kid, _Product):
                    part = done.pop()
                    up.update({v: row | later for v, row in part.items()} if later else part)
                if type(node) is Tri:
                    later |= kid.mask
            if memo is not None:
                memo[node] = up
            done.append(up)
            continue
        up = None if memo is None else memo.get(node)
        if up is None:
            todo.append((node,))
            todo.extend([kid for kid in reversed(node.children) if isinstance(kid, _Product)])
        else:
            done.append(up)
    return done[0]


def evaluate(expr: Expression) -> FinitePoset:
    """The poset denoted by a normal-form expression on variables 0..n-1.

    Element i of the result corresponds to variable x<i>.
    """
    if not is_normal(expr):
        raise MalformedExpression("expression is not in canonical normal form")
    labels = variables(expr)
    if labels != tuple(range(len(labels))):
        raise MalformedExpression(f"variables {labels} are not contiguous from 0")
    up = up_sets(expr)
    return FinitePoset(len(labels), tuple(map(up.__getitem__, labels)))


# ---------------------------------------------------------------------------
# Text syntax

def format_expression(expr: Expression) -> str:
    # An explicit stack, so depth costs no recursion.  Every node's text
    # starts with a space, which the root's loses at the end.
    out = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, Var):
            out.append(f" x{node.index}")
        elif isinstance(node, Unit):
            out.append(" e")
        else:
            out.append(" (ox" if isinstance(node, Otimes) else " (tri")
            stack.append(")")
            stack.extend(reversed(node.children))
    return "".join(out)[1:]


def _is_var_token(tok: str) -> bool:
    # ASCII digits only: str.isdigit also accepts "²", "٣" and "０".
    digits = tok[1:]
    return tok[:1] == "x" and digits.isascii() and digits.isdigit()


def parse_expression(text: str) -> Expression:
    """Parse the s-expression syntax, normalizing as it builds.

    Open products wait on a stack, so depth costs no recursion.  A variable
    index of ``MAX_ELEMENTS`` or more is rejected before any term is built.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    for tok in tokens:
        if _is_var_token(tok):
            digits = tok[1:].lstrip("0")
            if len(digits) > len(str(MAX_ELEMENTS)) or int(digits or 0) >= MAX_ELEMENTS:
                raise MalformedExpression(
                    f"variable {tok} is out of range; indices stop below {MAX_ELEMENTS}"
                )
    rest = iter(tokens)  # the tokens not yet read
    stack: list[tuple] = []  # open products, outermost first: (constructor, children)
    for tok in rest:
        if tok == "(":
            head = next(rest, None)
            if head not in ("ox", "tri"):
                raise MalformedExpression("expected 'ox' or 'tri' after '('")
            stack.append((ox if head == "ox" else tri, []))
            continue
        if tok == ")" and stack:
            make, children = stack.pop()
            expr = make(*children)
        elif tok == "e":
            expr = UNIT
        elif _is_var_token(tok):
            expr = Var(int(tok[1:]))
        else:
            raise MalformedExpression(f"unexpected token {tok!r}")
        if not stack:
            break
        stack[-1][1].append(expr)
    else:
        raise MalformedExpression("missing ')'" if stack else "unexpected end of expression")
    trailing = list(rest)
    if trailing:
        raise MalformedExpression(f"trailing tokens after expression: {trailing}")
    return expr
