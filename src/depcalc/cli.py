"""Command-line surface.

Exit codes: 0 success, 1 negative analytic result (not expressible, not an
inclusion, invalid diagram), 2 input or usage error, 70 internal error (a
defect: one ``error: internal:`` line, no traceback).  All output is
deterministic; JSON mode emits values that re-parse to equal objects.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import diagram as dg
from . import polynomial as pl
from . import poset as ps
from .errors import DepcalcError, NotExpressible, NotInclusion
from .expressible import Obstruction, decompose
from .expression import evaluate, format_expression, parse_expression
from .operad import expressible_covers, intersect
from .structure_maps import derive_structure_map, format_proof, proof_to_json_dict
from .tropical import as_runtime, render_gantt, schedule


def _load_json(path: str, parse_float=float):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle, parse_float=parse_float)
        except RecursionError:
            raise ValueError(f"{path}: JSON nests too deeply to read") from None


def _load_poset(path: str) -> ps.FinitePoset:
    return ps.from_json_dict(_load_json(path))


def _load_poly(path: str) -> pl.FinitePolynomial:
    return pl.from_json_dict(_load_json(path))


def _emit_poset(p: ps.FinitePoset, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(ps.to_json_dict(p), sort_keys=True)
    if fmt == "dot":
        return ps.to_dot(p)
    return f"elements: {p.size}\nrelations: {_pairs_text(p)}"


def _pairs_text(p: ps.FinitePoset) -> str:
    return " ".join(f"{i}<{j}" for i, j in p.pairs()) or "(none)"


def _zigzag_line(witness: Obstruction) -> str:
    return "not expressible; zig-zag at " + " ".join(map(str, witness.elements))


def _print(text: str) -> None:
    sys.stdout.write(text + "\n")


def cmd_check(args) -> int:
    p = _load_poset(args.poset)
    result = decompose(p)
    witness = result if isinstance(result, Obstruction) else None
    if args.format == "json":
        payload = {
            "expressible": witness is None,
            "obstruction": list(witness.elements) if witness else None,
        }
        _print(json.dumps(payload, sort_keys=True))
    elif witness is None:
        _print("expressible")
    else:
        _print(_zigzag_line(witness))
    return 0 if witness is None else 1


def cmd_decompose(args) -> int:
    p = _load_poset(args.poset)
    result = decompose(p)
    failed = isinstance(result, Obstruction)
    if args.format == "json":
        payload = {
            "expression": None if failed else format_expression(result),
            "obstruction": list(result.elements) if failed else None,
        }
        _print(json.dumps(payload, sort_keys=True))
    elif failed:
        _print(_zigzag_line(result))
    else:
        _print(format_expression(result))
    return 1 if failed else 0


def cmd_eval(args) -> int:
    expr = parse_expression(args.expr)
    _print(_emit_poset(evaluate(expr), args.format))
    return 0


def cmd_derive(args) -> int:
    source = _load_poset(args.source)
    target = _load_poset(args.target)
    try:
        proof = derive_structure_map(source, target)
    except (NotInclusion, NotExpressible) as err:
        sys.stderr.write(f"no structure map: {err}\n")
        return 1
    if args.format == "json":
        _print(json.dumps(proof_to_json_dict(proof), sort_keys=True))
    else:
        _print(format_proof(proof))
    return 0


def cmd_covers(args) -> int:
    p = _load_poset(args.poset)
    covers = expressible_covers(p)
    if args.format == "json":
        _print(json.dumps({"covers": [ps.to_json_dict(c) for c in covers]}, sort_keys=True))
    else:
        for cover in covers:
            _print(_pairs_text(cover))
    return 0


def cmd_intersect(args) -> int:
    posets = [_load_poset(path) for path in args.files]
    _print(_emit_poset(intersect(posets), args.format))
    return 0


def cmd_tropical(args) -> int:
    p = _load_poset(args.poset)
    runtimes = [as_runtime(tok) for tok in args.runtimes.split(",")] if args.runtimes else []
    plan = schedule(p, runtimes)
    if args.format == "json":
        payload = {
            "makespan": str(plan.makespan),
            "start": [str(x) for x in plan.start],
            "finish": [str(x) for x in plan.finish],
            "critical_chain": list(plan.critical_chain),
        }
        _print(json.dumps(payload, sort_keys=True))
        return 0
    # Drawn before anything is printed, so a chart past its size cap leaves
    # only the error line.
    chart = render_gantt(plan, args.resolution) if args.gantt else None
    _print(f"makespan: {plan.makespan}")
    _print("element start finish")
    for e in range(p.size):
        _print(f"{e:>7} {str(plan.start[e]):>5} {str(plan.finish[e]):>6}")
    _print("critical chain: " + (" ".join(map(str, plan.critical_chain)) or "(empty)"))
    if chart is not None:
        _print(chart)
    return 0


def _emit_poly(p: pl.FinitePolynomial, fmt: str, verbose: bool) -> None:
    sig = pl.signature(p).counts
    if fmt == "json":
        payload = {"positions": list(p.directions), "signature": list(sig)}
        _print(json.dumps(payload, sort_keys=True))
        return
    _print(f"signature: {' '.join(map(str, sig)) or '(zero)'}  ({pl.format_polynomial(p)})")
    if verbose:
        _print("position direction-count")
        for k, d in enumerate(p.directions):
            _print(f"{k:>8} {d}")


def cmd_poly(args) -> int:
    if args.poly_op == "ox":
        result = pl.dirichlet(_load_poly(args.left), _load_poly(args.right))
    elif args.poly_op == "tri":
        result = pl.compose(_load_poly(args.left), _load_poly(args.right))
    else:
        p = _load_poset(args.poset)
        parts = [_load_poly(path) for path in args.parts]
        if args.extension is None:
            ell = ps.linear_extension(p)
        else:  # "" is the empty order
            ell = tuple(map(int, args.extension.split(","))) if args.extension else ()
        result = pl.boxtimes_poly(p, parts, ell)
    _emit_poly(result, args.format, args.verbose)
    return 0


def _parse_assignment(args, algebra: str) -> dg.Decoration:
    if args.assign_file:
        # A runtime is read from its decimal text, exactly, as --assign reads
        # it; a polynomial rejects the text as it rejects any non-integer.
        raw = _load_json(args.assign_file, parse_float=str)
        if not isinstance(raw, dict):
            raise ValueError("assignment file must map generator names to values")
        if algebra == "tropical":
            return dg.Decoration({k: as_runtime(v) for k, v in raw.items()})
        return dg.Decoration({k: pl.from_json_dict({"positions": v}) for k, v in raw.items()})
    if args.assign:
        if algebra != "tropical":
            raise ValueError("inline --assign holds runtimes; use --assign-file for polynomials")
        table = {}
        for item in args.assign.split(","):
            name, _, value = item.partition("=")
            if not value:
                raise ValueError(f"bad assignment {item!r}; expected name=value")
            table[name.strip()] = as_runtime(value)
        return dg.Decoration(table)
    raise ValueError("decorate needs --assign or --assign-file")


def cmd_diagram(args) -> int:
    pg = dg.polygraph_from_json_dict(_load_json(args.polygraph))
    diag = dg.diagram_from_json_dict(pg, _load_json(args.diagram))
    if args.diagram_op == "validate":
        verdict = dg.validate_diagram(pg, diag)
        if verdict is True:
            _print("valid")
            return 0
        _print(f"invalid at stage {verdict.stage}: {verdict.reason}")
        return 1
    if args.diagram_op == "edge-poset":
        p, instances = dg.edge_poset(diag)
        if args.format == "json":
            payload = {
                "poset": ps.to_json_dict(p),
                "instances": [
                    {"element": inst.element, "layer": inst.layer,
                     "cell": inst.cell, "generator": inst.name}
                    for inst in instances
                ],
            }
            _print(json.dumps(payload, sort_keys=True))
        elif args.format == "dot":
            _print(ps.to_dot(p))
        else:
            for inst in instances:
                _print(f"{inst.element}: {inst.name} (layer {inst.layer})")
            _print(_emit_poset(p, "text"))
        return 0
    # decorate
    algebra = dg.TropicalAlgebra() if args.algebra == "tropical" else dg.PolynomialAlgebra()
    decoration = _parse_assignment(args, args.algebra)
    value = dg.decorate(diag, decoration, algebra)
    if isinstance(value, Fraction):
        if args.format == "json":
            _print(json.dumps({"value": str(value)}, sort_keys=True))
        else:
            _print(f"value: {value}")
    else:
        _emit_poly(value, args.format, verbose=False)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="depcalc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("text", "json")):
        p.add_argument("--format", choices=choices, default="text")

    p = sub.add_parser("check", help="test a poset for expressibility")
    p.add_argument("--poset", required=True)
    add_format(p)
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("decompose", help="expression of an expressible poset")
    p.add_argument("--poset", required=True)
    add_format(p)
    p.set_defaults(run=cmd_decompose)

    p = sub.add_parser("eval", help="poset denoted by an expression")
    p.add_argument("--expr", required=True)
    add_format(p, ("text", "json", "dot"))
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("derive", help="structure-map derivation between poset files")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    add_format(p)
    p.set_defaults(run=cmd_derive)

    p = sub.add_parser("covers", help="expressible covers whose intersection is the poset")
    p.add_argument("--poset", required=True)
    add_format(p)
    p.set_defaults(run=cmd_covers)

    p = sub.add_parser("intersect", help="intersection of same-size posets")
    p.add_argument("files", nargs="+")
    add_format(p, ("text", "json", "dot"))
    p.set_defaults(run=cmd_intersect)

    p = sub.add_parser("tropical", help="critical-path schedule for runtimes on a poset")
    p.add_argument("--poset", required=True)
    p.add_argument("--runtimes", required=True, help="comma-separated exact decimals")
    p.add_argument("--gantt", action="store_true")
    p.add_argument("--resolution", default="1", help="time units per chart column")
    add_format(p)
    p.set_defaults(run=cmd_tropical)

    p = sub.add_parser("poly", help="finite polynomial operations")
    poly_sub = p.add_subparsers(dest="poly_op", required=True)
    for op in ("ox", "tri"):
        q = poly_sub.add_parser(op)
        q.add_argument("--left", required=True)
        q.add_argument("--right", required=True)
        q.add_argument("--verbose", action="store_true")
        add_format(q)
        q.set_defaults(run=cmd_poly)
    q = poly_sub.add_parser("boxtimes")
    q.add_argument("--poset", required=True)
    q.add_argument("--parts", nargs="+", required=True)
    q.add_argument("--extension", help="comma-separated linear extension")
    q.add_argument("--verbose", action="store_true")
    add_format(q)
    q.set_defaults(run=cmd_poly)

    p = sub.add_parser("diagram", help="string-diagram operations")
    diag_sub = p.add_subparsers(dest="diagram_op", required=True)
    for op in ("edge-poset", "validate", "decorate"):
        q = diag_sub.add_parser(op)
        q.add_argument("--polygraph", required=True)
        q.add_argument("--diagram", required=True)
        if op == "decorate":
            q.add_argument("--algebra", choices=("tropical", "poly"), default="tropical")
            q.add_argument("--assign", help="name=runtime pairs, comma separated")
            q.add_argument("--assign-file", help="JSON file of generator values")
        add_format(q, ("text", "json", "dot") if op == "edge-poset" else ("text", "json"))
        q.set_defaults(run=cmd_diagram)

    return parser


#: The parser every ``main`` call in the process shares, built on first use.
_parser = functools.cache(build_parser)

#: BSD's EX_SOFTWARE: an exception outside the documented set is a defect.
EXIT_INTERNAL = 70


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (NotInclusion, NotExpressible) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    except (DepcalcError, OSError, ValueError, KeyError, IndexError, TypeError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except Exception as err:
        message = " ".join(str(err).splitlines())
        sys.stderr.write(f"error: internal: {type(err).__name__}: {message}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
