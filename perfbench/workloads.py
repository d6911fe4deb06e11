"""The three workloads: seeded rounds of inputs, the ops run on them, and an
oracle check of every answer.

A workload hands out its inputs in rounds.  Round k is generated from
(seed, k) alone, and its mix of input kinds and sizes does not depend on
the seed (sizes are stratified or set by k, not drawn freely), so runs on
different seeds do the same amount of work.  A run is a fixed number of whole rounds: ``--seconds``
times the workload's ``rounds_per_s``, the pace of the seed revision on a
2-vCPU 2.1 GHz virtual machine.  A fixed amount of work keeps counts and
memory comparable between runs; a faster program finishes sooner.

An op is one public library call (sp-large, derive-sweep) or one
``depcalc.cli.main(argv)`` call (cli-mix).  ``Run`` times each op and keeps
two tallies: ``failed`` counts every op that raised unexpectedly, broke the
CLI's exit-code contract, or gave an answer the oracle rejected; ``wrong``
counts only the last kind, answers to valid inputs that are not correct.
"""

from __future__ import annotations

import gc
import io
import json
import shutil
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import depcalc as D
import depcalc.cli
import generators as G
import oracle as O

# Inputs are built with the closure as it was at import time, so that the
# tracer (which replaces ``depcalc.from_pairs``) sees only the ops' own calls.
build_poset = D.from_pairs

# The machine's pace.  On a shared host the same work runs up to 50% slower
# in spells of seconds to minutes, so raw times of one run differ from the
# next by more than a real change in the program would.  After every
# PACE_EVERY_S of op time the run times reference_task, which never touches
# the library, and each op's latency is scaled by REFERENCE_S over the median
# of the five reference samples around it (``Run.paced_latencies``): the
# reported times are what the ops would take in a spell where the reference
# task takes REFERENCE_S.
PACE_EVERY_S = 0.05
REFERENCE_S = 0.001
_REFERENCE_DOC = json.dumps({"elements": 30, "relations": [[i, i + 1] for i in range(29)],
                             "format": "json", "name": "x" * 40})


def reference_task() -> int:
    """Fixed work, about 1 ms on a 2.1 GHz vCPU: half interpreted loop (dict
    lookups, int arithmetic), half the json module's C code.  A spell slows
    the two kinds by different amounts, and the workloads mix both; on
    sp-large, derive-sweep and cli-mix alike, this blend tracked a run's
    speed better than either half alone."""
    table: dict[int, int] = {}
    for i in range(3000):
        table[i % 100] = table.get(i % 100, 0) + i * 3
    size = 0
    for _ in range(12):
        size += len(json.dumps(json.loads(_REFERENCE_DOC), sort_keys=True))
    return sum(table.values()) + size


class Run:
    """Timing and failure tally for one closed-loop run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.pace_marks: list[int] = []  # ops done when each reference sample was taken
        self.pace_s: list[float] = []  # the reference samples
        self.unpaced = 0.0  # op time since the last reference sample
        self.failed: Counter = Counter()
        self.wrong: Counter = Counter()
        self.reasons: dict[str, str] = {}

    def call(self, fn, *args, span=None):
        """Time one op; returns (result, exception)."""
        if self.tracer is not None:
            self.tracer.op += 1
        start = perf_counter()
        try:
            if span is not None and self.tracer is not None:
                with self.tracer.span(span):
                    result = fn(*args)
            else:
                result = fn(*args)
            err = None
        except Exception as exc:  # an op that raises is a failed op, not a crash of the run
            result, err = None, exc
        self.latencies.append(perf_counter() - start)
        self.unpaced += self.latencies[-1]
        return result, err

    def pace(self, force: bool = False) -> None:
        """Time reference_task if PACE_EVERY_S of op time has passed since the
        last sample, or if `force` and any op has run since."""
        if self.unpaced < PACE_EVERY_S and not (force and self.unpaced > 0):
            return
        # A collection that a reference sample happened to trigger would scan
        # the library's memo caches and time the program's heap, not the pace.
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        reference_task()
        self.pace_s.append(perf_counter() - start)
        if enabled:
            gc.enable()
        self.pace_marks.append(len(self.latencies))
        self.unpaced = 0.0

    def paced_latencies(self) -> list[float]:
        """Op latencies at the nominal pace: each op's time times REFERENCE_S
        over the median of the five reference samples nearest its own."""
        self.pace(force=True)
        paced, lo = [], 0
        for j, hi in enumerate(self.pace_marks):
            window = sorted(self.pace_s[max(0, j - 2) : j + 3])
            scale = REFERENCE_S / window[len(window) // 2]
            paced += [t * scale for t in self.latencies[lo:hi]]
            lo = hi
        return paced

    def fail(self, op: str, reason: str, wrong: bool = True) -> None:
        self.failed[op] += 1
        if wrong:
            self.wrong[op] += 1
        self.reasons.setdefault(op, reason)

    def check(self, op: str, reason: str | None) -> bool:
        """Record an oracle verdict on an answer to a valid input."""
        if reason is not None:
            self.fail(op, reason)
        return reason is None

    def raised(self, op: str, err: BaseException) -> None:
        """An exception where an answer was due: a wrong verdict if it is one
        of the library's analytic negatives, a crash otherwise."""
        verdict = isinstance(err, (D.NotInclusion, D.NotExpressible))
        self.fail(op, f"raised {type(err).__name__}: {str(err)[:120]}", wrong=verdict)

    def expect(self, op: str, err, cls, answer=None) -> bool:
        """Record whether an op raised the expected analytic negative."""
        if isinstance(err, cls):
            return True
        if err is not None and not isinstance(err, D.DepcalcError):
            self.raised(op, err)
        else:
            self.fail(op, f"expected {cls.__name__}, got {err or answer!r}"[:160])
        return False


def drive(workload, run: Run, rounds: int, hard_deadline: float, min_ops: int = 0,
          after_round=None) -> int:
    """Run whole rounds, at least `rounds` of them and at least min_ops ops,
    unless the hard deadline passes first; after_round(k), if given, runs
    after round k, outside op timing.  Returns the rounds run."""
    k = 0
    while (k < rounds or len(run.latencies) < min_ops) and perf_counter() < hard_deadline:
        for task in workload.round(k):
            workload.run(run, task)
            run.pace()
        if after_round is not None:
            after_round(k)
        k += 1
    return k


def stratified(rng, lo: int, hi: int, count: int, power: float = 1.0) -> list[int]:
    """count sizes in [lo, hi], one from each of count equal slices of u in
    [0, 1), mapped by n = lo + (hi - lo + 1) * u**power (power > 1 favours
    small sizes)."""
    return [lo + int(((k + rng.random()) / count) ** power * (hi - lo + 1))
            for k in range(count)]


# ---------------------------------------------------------------------------
# sp-large

class SpLarge:
    """Large series-parallel posets through every layer, one poset at a time.

    Sizes stop at 64 (96 for chains and antichains) because the seed
    revision's find_z is O(n^4): chain(200) takes 7.8 s and chain(300) 51 s.
    The eleven expressible posets of a round are denser at the small end
    (power 1.6), so that a run of 1,000 ops fits in about 30 s.

    The sizes, build-tree shapes and ox-to-tri flips of round k come from a
    stream that is the same for every seed; the seed draws the labelling of
    every expressible poset, the runtimes and the order of the round.  At
    the seed revision find_z's time differs up to 50x between random shapes
    of one size, and a run holds only about a dozen posets near n = 64, so
    with per-seed shapes the run-to-run spread of ops_per_s was about 20%.
    Planted posets take their label shuffle from the shared stream as well:
    find_z stops at the first zig-zag in index order, so their labelling
    alone moved a run's find_z time by several percent.
    """

    name = "sp-large"
    rounds_per_s = 0.3

    def __init__(self, seed: int, workdir: Path | None = None):
        self.seed = seed

    def round(self, k: int) -> list[dict]:
        shapes = G.rng_for("shapes", self.name, k)
        rng = G.rng_for(self.seed, self.name, k)
        specs = [("sp", n) for n in stratified(shapes, 16, 64, 11, power=1.6)]
        specs += [("planted", n) for n in stratified(shapes, 16, 64, 4)]
        specs.append(("chain" if k % 2 == 0 else "antichain", shapes.randint(64, 96)))
        tasks = []
        for kind, n in specs:
            labels = (shapes if kind == "planted" else rng).sample(range(n), n)
            if kind == "chain":
                tree = G.chain_tree(shapes, labels)
            elif kind == "antichain":
                tree = G.antichain_tree(shapes, labels)
            else:
                tree = G.sp_tree(shapes, n, planted=kind == "planted", labels=labels)
            coarse = G.coarsen(shapes, tree, 0.3)
            rel_q = G.relation(coarse)
            tasks.append({
                "kind": kind, "n": n, "rel": G.relation(tree), "pairs": G.generating_pairs(tree),
                "rel_q": rel_q, "q": build_poset(n, sorted(rel_q)), "times": G.runtimes(rng, n),
            })
        rng.shuffle(tasks)
        return tasks

    def run(self, run: Run, task: dict) -> None:
        n, rel, planted = task["n"], task["rel"], task["kind"] == "planted"
        p, err = run.call(D.from_pairs, n, task["pairs"])
        if err is not None:
            return run.raised("from_pairs", err)
        run.check("from_pairs", O.check_relation(n, rel, p.size, p.pairs()))

        verdict, err = run.call(D.is_expressible, p)
        if err is not None:
            run.raised("is_expressible", err)
        elif verdict == planted:
            run.fail("is_expressible", f"answered {verdict} for a {task['kind']} poset")

        expr, err = run.call(D.decompose, p)
        if err is not None:
            run.raised("decompose", err)
        elif planted:
            if type(expr).__name__ != "Obstruction":
                run.fail("decompose", "no obstruction for a planted zig-zag")
            else:
                run.check("decompose", O.check_witness(expr.elements, rel))
        elif run.check("decompose", None if O.denotes(O.eval_expr(expr), n, rel)
                       else "expression does not denote the poset"):
            back, err = run.call(D.evaluate, expr)
            if err is not None:
                run.raised("evaluate", err)
            else:
                run.check("evaluate", O.check_relation(n, rel, back.size, back.pairs()))

        plan, err = run.call(D.schedule, p, task["times"])
        if err is not None:
            run.raised("schedule", err)
        else:
            run.check("schedule", O.check_schedule(n, rel, task["times"], plan))

        proof, err = run.call(D.derive_structure_map, p, task["q"])
        if planted:
            if run.expect("derive_structure_map", err, D.NotExpressible, proof):
                run.check("derive_structure_map",
                          O.check_witness(err.obstruction.elements, rel, task["rel_q"]))
        elif err is not None:
            run.raised("derive_structure_map", err)
        elif run.check("derive_structure_map", O.check_proof(n, rel, task["rel_q"], proof)):
            ok, err = run.call(D.verify_proof, proof)
            if err is not None:
                run.raised("verify_proof", err)
            elif ok is not True:
                run.fail("verify_proof", "rejected a correct proof")

        result, err = run.call(D.diagram_realizing, p)
        if err is not None:
            run.raised("diagram_realizing", err)
        else:
            run.check("diagram_realizing", O.check_realization(n, rel, result))


# ---------------------------------------------------------------------------
# derive-sweep

class DeriveSweep:
    """Distinct small pairs: 60% inclusions, 30% non-inclusions, 10% with a
    non-expressible side.  No pair repeats within a run.

    The sizes follow from how many distinct pairs of each kind the generator
    below can make.  Drawing 60,000 pairs per kind and size found only 79
    inclusions and 282 non-inclusions on 3 elements, and about 2,100
    inclusions and 192 non-expressible pairs on 4 (AVAILABLE); every kind has
    20,000 or more on 5 and on 6 elements.  Each of the four scarce (kind,
    size) cells gets one pair every PERIOD rounds: the smallest power of two
    at which a 60 s run, the longest a run can be, draws at most half of the
    cell's distinct pairs.  All other slots alternate between 5 and 6
    elements, so the pairs of a 30 s run are 0.1% on 3 elements, 0.7% on 4,
    50.0% on 5 and 49.2% on 6 (``size_shares``).  The sizes of round k depend
    on k alone, and a repeated pair is redrawn at the same size.
    """

    name = "derive-sweep"
    rounds_per_s = 95.0
    MIX = {"inclusion": 12, "non-inclusion": 6, "non-expressible": 2}
    # Distinct pairs the generator can make in each scarce cell, and the
    # period that keeps a 60 s run (5,700 rounds) within half of them.
    AVAILABLE = {("inclusion", 3): 79, ("non-inclusion", 3): 282,
                 ("inclusion", 4): 2086, ("non-expressible", 4): 192}
    PERIOD = {("inclusion", 3): 256, ("non-inclusion", 3): 64,
              ("inclusion", 4): 8, ("non-expressible", 4): 64}

    def __init__(self, seed: int, workdir: Path | None = None):
        self.seed = seed
        self.seen: set[int] = set()

    @classmethod
    def sizes(cls, k: int) -> list[tuple[str, int]]:
        """(kind, size) of the twenty pairs of round k, before shuffling."""
        out = []
        for kind, count in cls.MIX.items():
            scarce = [n for (kd, n), period in cls.PERIOD.items() if kd == kind and k % period == 0]
            out += [(kind, n) for n in scarce]
            out += [(kind, 5 + (k + i) % 2) for i in range(count - len(scarce))]
        return out

    @classmethod
    def size_shares(cls, rounds: int) -> dict[tuple[str, int], float]:
        """Share of each (kind, size) among the pairs of a run of `rounds`."""
        tally = Counter(cell for k in range(rounds) for cell in cls.sizes(k))
        total = sum(tally.values())
        return {cell: tally[cell] / total for cell in sorted(tally)}

    @staticmethod
    def key(kind: str, n: int, rel_p, rel_q) -> int:
        """One int per distinct pair: the kind, n and a 36-bit mask per relation."""
        masks = [sum(1 << (6 * i + j) for i, j in rel) for rel in (rel_p, rel_q)]
        return (((list(DeriveSweep.MIX).index(kind) * 8 + n) << 36 | masks[0]) << 36) | masks[1]

    def _pair(self, rng, kind: str, n: int):
        if kind == "inclusion":
            tree = G.sp_tree(rng, n)
            rel_p = G.relation(tree)
            rel_q = G.random_super_relation(rng, n, rel_p) if rng.random() < 0.5 else None
            if rel_q is None:
                rel_q = G.relation(G.coarsen(rng, tree, 0.5))
            return rel_p, rel_q
        if kind == "non-inclusion":
            rel_p = G.relation(G.sp_tree(rng, n))
            rel_q = G.relation(G.sp_tree(rng, n))
            return (rel_p, rel_q) if not rel_p <= rel_q else None
        rel_q = G.relation(G.sp_tree(rng, n, planted=True))
        return G.random_sub_relation(rng, n, rel_q), rel_q

    def fresh_pair(self, rng, kind: str, n: int):
        """A pair of this kind and size that this run has not drawn before."""
        for _ in range(10_000):
            pair = self._pair(rng, kind, n)
            if pair is not None and self.key(kind, n, *pair) not in self.seen:
                self.seen.add(self.key(kind, n, *pair))
                return pair
        raise RuntimeError(f"no fresh {kind} pair on {n} elements left")

    def round(self, k: int) -> list[tuple]:
        rng = G.rng_for(self.seed, self.name, k)
        cells = self.sizes(k)
        rng.shuffle(cells)
        tasks = []
        for kind, n in cells:
            rel_p, rel_q = self.fresh_pair(rng, kind, n)
            tasks.append((kind, n, rel_p, rel_q,
                          build_poset(n, sorted(rel_p)), build_poset(n, sorted(rel_q))))
        return tasks

    def run(self, run: Run, task: tuple) -> None:
        kind, n, rel_p, rel_q, p, q = task
        proof, err = run.call(D.derive_structure_map, p, q)
        if kind == "non-inclusion":
            run.expect("derive_structure_map", err, D.NotInclusion, proof)
            return
        if kind == "non-expressible":
            if run.expect("derive_structure_map", err, D.NotExpressible, proof):
                run.check("derive_structure_map",
                          O.check_witness(err.obstruction.elements, rel_p, rel_q))
            return
        if err is not None:
            return run.raised("derive_structure_map", err)
        if not run.check("derive_structure_map", O.check_proof(n, rel_p, rel_q, proof)):
            return
        ok, err = run.call(D.verify_proof, proof)
        if err is not None:
            run.raised("verify_proof", err)
        elif ok is not True:
            run.fail("verify_proof", "rejected a correct proof")
        text, err = run.call(D.format_proof, proof)
        if err is not None:
            run.raised("format_proof", err)
        else:
            run.check("format_proof", O.check_proof_text(n, rel_p, rel_q, text))


# ---------------------------------------------------------------------------
# cli-mix

DEEP_EVAL = "(tri " * 1500 + "x0" + ")" * 1500

#: Inputs whose documented outcome is exit 2 with a one-line error; two of
#: them are rotated into every round.
BAD_INPUTS = ["malformed-json", "out-of-range", "cyclic", "float-relation",
              "bool-elements", "deep-eval"]


def _poset_json(n: int, pairs) -> dict:
    return {"elements": n, "relations": [list(pair) for pair in sorted(pairs)]}


def _parse_pairs(text: str) -> set:
    if text.strip() in ("(none)", ""):
        return set()
    return {tuple(int(x) for x in tok.split("<")) for tok in text.split()}


def _poset_output(out: str, fmt: str):
    """(n or None, closed relation) from the CLI's poset printout."""
    if fmt == "json":
        data = json.loads(out)
        return data["elements"], {tuple(pair) for pair in data["relations"]}
    if fmt == "dot":
        lines = out.strip().splitlines()
        nodes = [ln for ln in lines if ln.strip().endswith(";") and "->" not in ln]
        edges = [tuple(int(x) for x in ln.strip().rstrip(";").split(" -> "))
                 for ln in lines if "->" in ln]
        return len(nodes), set(O.close(len(nodes), edges))
    head, rels = out.strip().splitlines()[-2:]
    return int(head.split(": ")[1]), _parse_pairs(rels.split(": ", 1)[1])


def _signature_output(out: str, fmt: str) -> tuple:
    if fmt == "json":
        return tuple(json.loads(out)["signature"])
    body = out.split("\n", 1)[0].split(": ", 1)[1].split("  (")[0]
    return () if body == "(zero)" else tuple(int(x) for x in body.split())


class CliMix:
    """In-process ``depcalc.cli.main(argv)`` over every subcommand."""

    name = "cli-mix"
    rounds_per_s = 4.3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def round(self, k: int) -> list[dict]:
        rng = G.rng_for(self.seed, self.name, k)
        folder = self.workdir / f"r{k}"
        folder.mkdir(exist_ok=True)
        file_names = (f"f{i}.json" for i in range(1 << 30))

        def write(value, text: str | None = None) -> str:
            path = folder / next(file_names)
            path.write_text(G.dumps(value) if text is None else text, encoding="utf-8")
            return str(path)

        tasks: list[dict] = []

        def add(sub, argv, check, valid=True):
            tasks.append({"sub": sub, "argv": argv, "check": check, "valid": valid})

        # Poset sizes and shapes come from a stream shared by every seed, as
        # in sp-large; the seed draws the labels and everything else.
        shapes = G.rng_for("shapes", self.name, k)

        def poset_tree(n: int, planted: bool = False):
            return G.sp_tree(shapes, n, planted, labels=rng.sample(range(n), n))

        fmts = ["text", "json"]
        for i, n in enumerate(stratified(shapes, 5, 40, 4)):
            planted = i == 3
            tree = poset_tree(n, planted)
            rel = G.relation(tree)
            path = write(_poset_json(n, G.generating_pairs(tree)))
            fmt = fmts[(k + i) % 2]
            add("check", ["check", "--poset", path, "--format", fmt],
                _check_check(n, rel, planted, fmt))
            add("decompose", ["decompose", "--poset", path, "--format", fmts[(k + i + 1) % 2]],
                _check_decompose(n, rel, planted, fmts[(k + i + 1) % 2]))

        for i, n in enumerate(stratified(shapes, 5, 40, 3)):
            tree = poset_tree(n)
            fmt = ["text", "json", "dot"][(k + i) % 3]
            add("eval", ["eval", "--expr", G.expression_text(tree), "--format", fmt],
                _check_poset_print(n, G.relation(tree), fmt))

        for i, n in enumerate(stratified(shapes, 5, 40, 4)):
            kind = ["inclusion", "inclusion", "non-inclusion", "non-expressible"][i]
            tree = poset_tree(n, planted=kind == "non-expressible")
            rel_p = G.relation(tree)
            rel_q = G.relation(G.coarsen(shapes, tree, 0.4))
            while kind == "non-inclusion" and rel_p <= rel_q:
                rel_q = G.relation(G.sp_tree(rng, n))
            fmt = fmts[(k + i) % 2]
            add("derive", ["derive", "--source", write(_poset_json(n, rel_p)),
                           "--target", write(_poset_json(n, rel_q)), "--format", fmt],
                _check_derive(kind, n, rel_p, rel_q, fmt))

        for n in stratified(shapes, 5, 40, 3):
            tree = poset_tree(n)
            times = [Fraction(rng.randint(0, 6), 2) for _ in range(n)]
            text = ",".join(str(float(t)) for t in times)
            add("tropical", ["tropical", "--poset", write(_poset_json(n, G.generating_pairs(tree))),
                             "--runtimes", text, "--gantt", "--resolution", "0.5"],
                _check_tropical(n, G.relation(tree), times))

        for i in range(2):
            n = shapes.randint(5, 8)
            rel = G.relation(poset_tree(n, planted=True))
            fmt = fmts[(k + i) % 2]
            add("covers", ["covers", "--poset", write(_poset_json(n, rel)), "--format", fmt],
                _check_covers(n, rel, fmt))
            rels = [G.relation(poset_tree(n, planted=True)) for _ in range(shapes.randint(2, 3))]
            meet = frozenset.intersection(*rels)
            fmt = ["text", "json", "dot"][(k + i) % 3]
            add("intersect", ["intersect"] + [write(_poset_json(n, r)) for r in rels]
                + ["--format", fmt], _check_poset_print(n, meet, fmt))

        def poly(positions: int, top: int) -> list[int]:
            return [rng.randint(0, top) for _ in range(positions)]

        for i in range(2):
            fmt = fmts[(k + i) % 2]
            left, right = poly(rng.randint(1, 4), 3), poly(rng.randint(1, 4), 3)
            add("poly-ox", ["poly", "ox", "--left", write({"positions": left}),
                            "--right", write({"positions": right}), "--format", fmt],
                _check_signature(O.ox_counts(left, right), fmt))
            left, right = poly(rng.randint(1, 3), 3), poly(rng.randint(1, 4), 3)
            add("poly-tri", ["poly", "tri", "--left", write({"positions": left}),
                             "--right", write({"positions": right}), "--format", fmt],
                _check_signature(O.tri_counts(left, right), fmt))
            n = rng.randint(2, 3)
            rel = G.relation(G.sp_tree(rng, n))
            parts = [poly(rng.randint(1, 3), 2) for _ in range(n)]
            add("poly-boxtimes", ["poly", "boxtimes", "--poset", write(_poset_json(n, rel)),
                                  "--parts"] + [write({"positions": x}) for x in parts]
                + ["--format", fmt], _check_signature(O.sp_box_counts(n, rel, parts), fmt))

        for i in range(2):
            pg, diag, names, rel = G.random_diagram(rng, rng.randint(3, 8))
            pg_path = write(pg)
            if i == 1:  # declare one output too many: invalid at the last stage
                bad = dict(diag, output=diag["output"] + ["w"])
                add("diagram-validate", ["diagram", "validate", "--polygraph", pg_path,
                                         "--diagram", write(bad)],
                    _check_invalid(len(diag["layers"])))
            else:
                add("diagram-validate", ["diagram", "validate", "--polygraph", pg_path,
                                         "--diagram", write(diag)], _check_text("valid"))
            fmt = fmts[(k + i) % 2]
            add("diagram-edge-poset", ["diagram", "edge-poset", "--polygraph", pg_path,
                                       "--diagram", write(diag), "--format", fmt],
                _check_edge_poset(names, rel, fmt))
            times = {g: Fraction(rng.randint(0, 8), 2) for g in pg["generators"]}
            assign = ",".join(f"{g}={float(t)}" for g, t in sorted(times.items()))
            want = O.makespan(len(names), rel, [times[g] for g in names])
            add("diagram-decorate", ["diagram", "decorate", "--polygraph", pg_path,
                                     "--diagram", write(diag), "--assign", assign,
                                     "--format", fmt], _check_value(want, fmt))

        while True:  # poly decoration: at most three instances, series-parallel
            pg, diag, names, rel = G.random_diagram(rng, 3, max_wires=3, max_instances=3)
            values = {g: poly(rng.randint(1, 3), 2) for g in pg["generators"]}
            counts = O.sp_box_counts(len(names), rel, [values[g] for g in names])
            if names and counts is not None:
                break
        fmt = fmts[k % 2]
        add("diagram-decorate", ["diagram", "decorate", "--polygraph", write(pg),
                                 "--diagram", write(diag), "--algebra", "poly",
                                 "--assign-file", write(values), "--format", fmt],
            _check_signature(counts, fmt))

        for kind in (BAD_INPUTS[(2 * k) % 6], BAD_INPUTS[(2 * k + 1) % 6]):
            add(*self._bad_input(kind, write, rng))
        rng.shuffle(tasks)
        return tasks

    @staticmethod
    def _bad_input(kind: str, write, rng):
        n = rng.randint(3, 6)
        if kind == "deep-eval":  # a valid expression, just deeply nested
            return "eval", ["eval", "--expr", DEEP_EVAL], _check_deep_eval, True
        if kind == "malformed-json":
            path = write(None, text='{"elements": 3, "relations": [[0, 1]')
        elif kind == "out-of-range":
            path = write({"elements": n, "relations": [[0, n]]})
        elif kind == "cyclic":
            path = write({"elements": n, "relations": [[0, 1], [1, 2], [2, 0]]})
        elif kind == "float-relation":
            path = write({"elements": n, "relations": [[0, 1.7]]})
        else:
            path = write({"elements": True, "relations": []})
        return "check", ["check", "--poset", path], _check_usage_error, False

    def run(self, run: Run, task: dict) -> None:
        out, err = io.StringIO(), io.StringIO()

        def call():
            with redirect_stdout(out), redirect_stderr(err):
                return depcalc.cli.main(task["argv"])

        code, exc = run.call(call, span="cli." + task["sub"])
        op = task["sub"]
        tracer = run.tracer
        if exc is not None:
            if tracer is not None:
                tracer.counts["cli.exit.other"] += 1
            return run.raised(op, exc)
        if tracer is not None:
            label = str(code) if code in (0, 1, 2) else "other"
            tracer.counts[f"cli.exit.{label}"] += 1
        try:
            reason = task["check"](code, out.getvalue(), err.getvalue())
        except (ValueError, KeyError, IndexError, TypeError) as bad:
            reason = f"unreadable output: {type(bad).__name__}: {bad}"
        if reason is not None:
            # On a valid input, a wrong verdict (exit 0 vs 1) or wrong content
            # is a wrong answer; a refusal, an odd exit code or stray stderr
            # breaks only the exit-code contract.
            contract = reason.startswith("stderr") or code not in (0, 1)
            run.fail(op, reason, wrong=task["valid"] and not contract)


# -- cli-mix answer checks: each returns a reason or None -------------------

def _outcome(code: int, out: str, err: str, want_code: int, stream: str = "out") -> str | None:
    if code != want_code:
        return f"exit {code}, expected {want_code}: {(err or out).strip()[:100]!r}"
    if stream == "out" and err:
        return f"stderr not empty on exit {code}: {err.strip()[:100]!r}"
    if stream == "err" and (out or err.count("\n") != 1):
        return f"stderr is not one line on exit {code}: {err!r}"[:160]
    return None


def _check_check(n, rel, planted, fmt):
    def check(code, out, err):
        bad = _outcome(code, out, err, 1 if planted else 0)
        if bad:
            return bad
        if fmt == "json":
            data = json.loads(out)
            if data["expressible"] == planted:
                return "wrong verdict"
            return O.check_witness(data["obstruction"], rel) if planted else None
        if not planted:
            return None if out == "expressible\n" else f"unexpected output {out!r}"
        return O.check_witness([int(x) for x in out.split(" at ")[1].split()], rel)
    return check


def _check_decompose(n, rel, planted, fmt):
    def check(code, out, err):
        bad = _outcome(code, out, err, 1 if planted else 0)
        if bad:
            return bad
        if fmt == "json":
            data = json.loads(out)
            if planted:
                return O.check_witness(data["obstruction"], rel)
            text = data["expression"]
        elif planted:
            return O.check_witness([int(x) for x in out.split(" at ")[1].split()], rel)
        else:
            text = out
        return None if O.denotes(O.eval_text(text), n, rel) else "expression does not denote the poset"
    return check


def _check_poset_print(n, rel, fmt):
    def check(code, out, err):
        bad = _outcome(code, out, err, 0)
        if bad:
            return bad
        size, got = _poset_output(out, fmt)
        return O.check_relation(n, rel, size, got)
    return check


def _check_derive(kind, n, rel_p, rel_q, fmt):
    def check(code, out, err):
        if kind != "inclusion":
            bad = _outcome(code, out, err, 1, stream="err")
            if bad:
                return bad
            if not err.startswith("no structure map: "):
                return f"unexpected stderr {err!r}"
            if kind == "non-expressible":
                quad = [int(x) for x in err.split("(")[-1].split(")")[0].split(",")]
                return O.check_witness(quad, rel_p, rel_q)
            return None
        bad = _outcome(code, out, err, 0)
        if bad:
            return bad
        if fmt == "json":
            data = json.loads(out)
            ok = O.denotes(O.eval_text(data["source"]), n, rel_p) and O.denotes(
                O.eval_text(data["target"]), n, rel_q)
            return None if ok else "proof endpoints differ from the posets"
        return O.check_proof_text(n, rel_p, rel_q, out)
    return check


def _check_tropical(n, rel, times):
    def check(code, out, err):
        bad = _outcome(code, out, err, 0)
        if bad:
            return bad
        lines = out.splitlines()
        got = Fraction(lines[0].split(": ")[1])
        want = O.makespan(n, rel, times)
        if got != want:
            return f"makespan {got} != {want}"
        rows = [ln for ln in lines if "[" in ln and ln.rstrip().endswith("]")]
        return None if len(rows) == n else f"gantt has {len(rows)} rows, expected {n}"
    return check


def _check_covers(n, rel, fmt):
    def check(code, out, err):
        bad = _outcome(code, out, err, 0)
        if bad:
            return bad
        if fmt == "json":
            covers = [{tuple(p) for p in c["relations"]} for c in json.loads(out)["covers"]]
        else:
            covers = [_parse_pairs(line) for line in out.splitlines()]
        return O.check_covers(n, rel, covers)
    return check


def _check_signature(counts, fmt):
    want = O.signature(counts)

    def check(code, out, err):
        bad = _outcome(code, out, err, 0)
        if bad:
            return bad
        got = _signature_output(out, fmt)
        return None if got == want else f"signature {got} != {want}"
    return check


def _check_text(expected: str):
    def check(code, out, err):
        bad = _outcome(code, out, err, 0)
        return bad or (None if out.strip() == expected else f"unexpected output {out!r}")
    return check


def _check_invalid(stage: int):
    def check(code, out, err):
        bad = _outcome(code, out, err, 1)
        prefix = f"invalid at stage {stage}:"
        return bad or (None if out.startswith(prefix) else f"expected {prefix!r}, got {out!r}")
    return check


def _check_edge_poset(names, rel, fmt):
    def check(code, out, err):
        bad = _outcome(code, out, err, 0)
        if bad:
            return bad
        if fmt == "json":
            data = json.loads(out)
            got_names = [inst["generator"] for inst in data["instances"]]
            size = data["poset"]["elements"]
            got = {tuple(p) for p in data["poset"]["relations"]}
        else:
            lines = out.splitlines()
            got_names = [ln.split(": ")[1].split(" (")[0] for ln in lines[:-2]]
            size, got = _poset_output(out, "text")
        if got_names != names:
            return "instances differ from the diagram's generator cells"
        return O.check_relation(len(names), rel, size, got)
    return check


def _check_value(want: Fraction, fmt: str):
    def check(code, out, err):
        bad = _outcome(code, out, err, 0)
        if bad:
            return bad
        got = Fraction(json.loads(out)["value"] if fmt == "json" else out.split(": ")[1].strip())
        return None if got == want else f"value {got} != {want}"
    return check


def _check_usage_error(code, out, err):
    bad = _outcome(code, out, err, 2, stream="err")
    return bad or (None if err.startswith("error: ") else f"unexpected stderr {err!r}")


def _check_deep_eval(code, out, err):
    """Either a one-line input error or the one-element poset."""
    if code == 2:
        return _check_usage_error(code, out, err)
    bad = _outcome(code, out, err, 0)
    return bad or (None if out == "elements: 1\nrelations: (none)\n" else f"unexpected output {out!r}")


WORKLOADS = {cls.name: cls for cls in (SpLarge, DeriveSweep, CliMix)}
