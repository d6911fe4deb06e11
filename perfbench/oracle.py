"""The benchmark's own answer checker.

Nothing here calls the library's algorithms.  Relations are sets of (i, j)
pairs meaning i < j; expressions and proofs returned by the library are read
as plain data (their class names and fields) and re-evaluated here.  Each
``check_*`` function returns None when the answer is right and a one-line
reason when it is wrong.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction


# ---------------------------------------------------------------------------
# Relations

def close(n: int, pairs) -> frozenset:
    """Transitive closure of pairs on 0..n-1 (one DFS per element)."""
    succ: list[set[int]] = [set() for _ in range(n)]
    for i, j in pairs:
        succ[i].add(j)
    out = set()
    for start in range(n):
        seen: set[int] = set()
        stack = list(succ[start])
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(succ[v])
        out.update((start, v) for v in seen)
    return frozenset(out)


def is_zigzag(rel, quad) -> bool:
    """True iff the four elements induce exactly a < b, c < b, c < d."""
    if len(set(quad)) != 4:
        return False
    a, b, c, d = quad
    want = {(a, b), (c, b), (c, d)}
    got = {(x, y) for x in quad for y in quad if (x, y) in rel}
    return got == want


def has_zigzag(n: int, rel) -> bool:
    """Brute-force search over ordered quadruples; meant for n <= 8."""
    above = [{j for (i, j) in rel if i == x} for x in range(n)]
    for a in range(n):
        for b in above[a]:
            for c in range(n):
                if c in (a, b) or b not in above[c]:
                    continue
                for d in above[c]:
                    if d not in (a, b) and is_zigzag(rel, (a, b, c, d)):
                        return True
    return False


def topological(n: int, rel) -> list[int]:
    """Kahn's algorithm, smallest ready element first."""
    indeg = [0] * n
    succ: list[list[int]] = [[] for _ in range(n)]
    for i, j in rel:
        succ[i].append(j)
        indeg[j] += 1
    ready = sorted(v for v in range(n) if indeg[v] == 0)
    order = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
        ready.sort()
    return order


def makespan(n: int, rel, times) -> Fraction:
    """Longest path, weighting each element by its runtime."""
    best = [Fraction(0)] * n
    preds: list[list[int]] = [[] for _ in range(n)]
    for i, j in rel:
        preds[j].append(i)
    for v in topological(n, rel):
        best[v] = max((best[u] for u in preds[v]), default=Fraction(0)) + Fraction(times[v])
    return max(best, default=Fraction(0))


# ---------------------------------------------------------------------------
# Expressions: printed text and library values

def _combine(kind: str, parts):
    elems, rel = [], set()
    for p_elems, p_rel in parts:
        if kind == "tri":
            rel.update((x, y) for x in elems for y in p_elems)
        elems = elems + p_elems
        rel |= p_rel
    return elems, rel


def eval_text(text: str):
    """(elements, relation) of an s-expression such as ``(tri x0 (ox x1 x2))``."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    stack: list[tuple[str, list]] = []
    result = None
    pos = 0
    while pos < len(tokens):
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            stack.append((tokens[pos], []))
            pos += 1
            continue
        if tok == ")":
            kind, parts = stack.pop()
            value = _combine(kind, parts)
        elif tok == "e":
            value = ([], set())
        elif tok.startswith("x") and tok[1:].isdigit():
            value = ([int(tok[1:])], set())
        else:
            raise ValueError(f"bad token {tok!r}")
        if stack:
            stack[-1][1].append(value)
        else:
            result = value
    if result is None or stack:
        raise ValueError("unbalanced expression")
    return result


def eval_expr(expr):
    """(elements, relation) of a library Expression, read as plain data."""
    kind = type(expr).__name__
    if kind == "Unit":
        return [], set()
    if kind == "Var":
        return [expr.index], set()
    return _combine("tri" if kind == "Tri" else "ox", [eval_expr(c) for c in expr.children])


def denotes(value, n: int, rel) -> bool:
    elems, got = value
    return sorted(elems) == list(range(n)) and got == set(rel)


# ---------------------------------------------------------------------------
# Checks, one per kind of answer

def check_relation(n: int, rel, got_size: int, got_pairs) -> str | None:
    if got_size != n:
        return f"size {got_size} != {n}"
    if set(got_pairs) != set(rel):
        return f"relation differs in {len(set(got_pairs) ^ set(rel))} pairs"
    return None


def check_witness(quad, *rels) -> str | None:
    """A zig-zag witness is valid if it is one in any of the given relations
    (a structure map may report either side as not expressible)."""
    if any(is_zigzag(rel, tuple(quad)) for rel in rels):
        return None
    return f"{tuple(quad)} is not a zig-zag"


def check_schedule(n: int, rel, times, plan) -> str | None:
    """Earliest starts, finishes, makespan and a critical chain."""
    want = makespan(n, rel, times)
    if plan.makespan != want:
        return f"makespan {plan.makespan} != {want}"
    preds: list[list[int]] = [[] for _ in range(n)]
    for i, j in rel:
        preds[j].append(i)
    for v in range(n):
        start = max((plan.finish[u] for u in preds[v]), default=Fraction(0))
        if plan.start[v] != start or plan.finish[v] != start + Fraction(times[v]):
            return f"element {v} starts at {plan.start[v]}, not {start}"
    chain = list(plan.critical_chain)
    if any((x, y) not in rel for x, y in zip(chain, chain[1:])):
        return f"critical chain {chain} is not a chain"
    if sum((Fraction(times[v]) for v in chain), Fraction(0)) != want:
        return "critical chain does not sum to the makespan"
    return None


def proof_endpoints(proof, memo=None):
    """(source, target) of a proof as (elements, relation), checking every node.

    A node must map its source into its target (an inclusion on the same
    elements); Equiv nodes must not change the poset and Compose nodes must
    meet in the middle.  Raises ValueError naming the first bad node.
    """
    memo = {} if memo is None else memo
    key = id(proof)
    if key in memo:
        return memo[key]
    kind = type(proof).__name__
    if kind == "Equiv":
        src, tgt = eval_expr(proof.source), eval_expr(proof.target)
        if sorted(src[0]) != sorted(tgt[0]) or src[1] != tgt[1]:
            raise ValueError("equiv node changes the poset")
    elif kind == "Compose":
        src, mid = proof_endpoints(proof.left, memo)
        mid2, tgt = proof_endpoints(proof.right, memo)
        if sorted(mid[0]) != sorted(mid2[0]) or mid[1] != mid2[1]:
            raise ValueError("compose node does not meet in the middle")
    elif kind in ("OtimesPar", "TriPar"):
        ends = [proof_endpoints(c, memo) for c in proof.parts]
        op = "ox" if kind == "OtimesPar" else "tri"
        src = _combine(op, [e[0] for e in ends])
        tgt = _combine(op, [e[1] for e in ends])
    elif kind == "InterchangerSubst":
        a, b, c, d = (proof_endpoints(x, memo) for x in
                      (proof.corner_a, proof.corner_b, proof.corner_c, proof.corner_d))
        src = _combine("ox", [_combine("tri", [a[0], b[0]]), _combine("tri", [c[0], d[0]])])
        tgt = _combine("tri", [_combine("ox", [a[1], c[1]]), _combine("ox", [b[1], d[1]])])
    else:
        raise ValueError(f"unknown proof node {kind}")
    if sorted(src[0]) != sorted(tgt[0]) or not src[1] <= tgt[1]:
        raise ValueError(f"{kind} node is not an inclusion")
    memo[key] = (src, tgt)
    return src, tgt


def proof_nodes(proof) -> int:
    kind = type(proof).__name__
    if kind == "Equiv":
        return 1
    if kind == "Compose":
        children = (proof.left, proof.right)
    elif kind == "InterchangerSubst":
        children = (proof.corner_a, proof.corner_b, proof.corner_c, proof.corner_d)
    else:
        children = proof.parts
    return 1 + sum(proof_nodes(c) for c in children)


def check_proof(n: int, rel_p, rel_q, proof) -> str | None:
    try:
        src, tgt = proof_endpoints(proof)
    except ValueError as err:
        return str(err)
    if not denotes(src, n, rel_p):
        return "proof source is not the source poset"
    if not denotes(tgt, n, rel_q):
        return "proof target is not the target poset"
    return None


def check_proof_text(n: int, rel_p, rel_q, text: str) -> str | None:
    """The root line of format_proof names both endpoints."""
    head = text.split("\n", 1)[0]
    _, _, body = head.partition(": ")
    src, sep, tgt = body.partition(" => ")
    if not sep:
        return f"bad proof header {head!r}"
    if not denotes(eval_text(src), n, rel_p) or not denotes(eval_text(tgt), n, rel_q):
        return "printed proof endpoints differ from the posets"
    return None


def check_covers(n: int, rel, covers) -> str | None:
    """Each cover contains rel and is expressible; together they meet in rel."""
    if not covers:
        return "no covers"
    meet = None
    for cover in covers:
        cover = set(cover)
        if not set(rel) <= cover:
            return "a cover does not contain the poset"
        if close(n, cover) != cover or has_zigzag(n, cover):
            return "a cover is not an expressible order"
        meet = cover if meet is None else meet & cover
    if meet != set(rel):
        return "the covers do not intersect to the poset"
    return None


def trace_diagram(diag):
    """(instance names, closed relation) of a library StringDiagram."""
    gens = {name: (len(src), len(tgt)) for name, src, tgt in diag.polygraph.generators}
    wires: list[int | None] = [None] * len(diag.inputs)
    names: list[str] = []
    direct = set()
    for layer in diag.layers:
        nxt, pos = [], 0
        for cell in layer:
            kind = type(cell).__name__
            if kind == "IdCell":
                nxt.append(wires[pos])
                pos += 1
            elif kind == "SwapCell":
                nxt += [wires[pos + 1], wires[pos]]
                pos += 2
            else:
                a, b = gens[cell.gen]
                element = len(names)
                names.append(cell.gen)
                direct.update((w, element) for w in wires[pos : pos + a] if w is not None)
                nxt += [element] * b
                pos += a
        if pos != len(wires):
            raise ValueError("layer does not consume every wire")
        wires = nxt
    if len(wires) != len(diag.outputs):
        raise ValueError("diagram outputs do not match its last layer")
    return names, close(len(names), direct)


def check_realization(n: int, rel, result) -> str | None:
    """diagram_realizing(p): instance g<e> stands for element e of p."""
    _, diag = result
    try:
        names, got = trace_diagram(diag)
    except (ValueError, IndexError, KeyError) as err:
        return f"diagram does not trace: {err}"
    if sorted(names) != sorted(f"g{e}" for e in range(n)):
        return "diagram instances are not g0..g<n-1>"
    element = [int(name[1:]) for name in names]
    mapped = {(element[i], element[j]) for i, j in got}
    return None if mapped == set(rel) else "diagram edge poset differs from the poset"


# ---------------------------------------------------------------------------
# Polynomials, as multisets of direction counts

def signature(counts) -> tuple:
    return tuple(sorted(counts, reverse=True))


def ox_counts(p, q) -> list[int]:
    return [a * b for a in p for b in q]


def tri_counts(p, q) -> list[int]:
    """Per position with d directions, the sums over all d-fold picks of q."""
    out: list[int] = []
    for d in p:
        sums = Counter({0: 1})
        for _ in range(d):
            grown: Counter = Counter()
            for s, k in sums.items():
                for dq in q:
                    grown[s + dq] += k
            sums = grown
        for s, k in sums.items():
            out += [s] * k
    return out


def sp_box_counts(n: int, rel, parts):
    """Poset product over a series-parallel order, folded along its own
    decomposition: disjoint parts multiply (ox), stacked parts compose (tri).
    Returns None when the order is not series-parallel.
    """
    def rec(elems: list[int]):
        if len(elems) == 1:
            return list(parts[elems[0]])
        comps = _components(elems, rel)
        if len(comps) > 1:
            acc = rec(comps[0])
            for comp in comps[1:]:
                nxt = rec(comp)
                if acc is None or nxt is None:
                    return None
                acc = ox_counts(acc, nxt)
            return acc
        maxima = [x for x in elems if not any((x, y) in rel for y in elems)]
        bottom = [x for x in elems if all((x, m) in rel for m in maxima)]
        top = [x for x in elems if x not in bottom]
        if not bottom or any((x, y) not in rel for x in bottom for y in top):
            return None
        low, high = rec(bottom), rec(top)
        return None if low is None or high is None else tri_counts(low, high)

    return [1] if n == 0 else rec(list(range(n)))


def _components(elems: list[int], rel) -> list[list[int]]:
    comps: list[list[int]] = []
    left = list(elems)
    while left:
        comp = {left[0]}
        grew = True
        while grew:
            grew = False
            for x in left:
                if x not in comp and any((x, y) in rel or (y, x) in rel for y in comp):
                    comp.add(x)
                    grew = True
        comps.append(sorted(comp))
        left = [x for x in left if x not in comp]
    return comps

