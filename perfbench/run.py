"""Benchmark for depcalc: one seeded, single-caller, closed-loop workload per run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sp-large --seed 1 --seconds 30 --trace 0

Workloads: sp-large, derive-sweep, cli-mix (see workloads.py and README.md).
With ``--trace 0`` the run reports the end-to-end metrics, with op times
scaled to a reference pace of the machine (see ``workloads.reference_task``;
the unscaled figures are printed on the summary line); with ``--trace 1``
it reports per-layer metrics from spans recorded around the library's public
functions, plus the tracing overhead.  Human-readable lines go first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The library is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_OPS = 1000  # at least ten latency samples beyond the 99th percentile
SETUP_REPEATS = 40
# A traced run covers this share of an untraced run's rounds, and MIN_OPS ops
# at least; its tracemalloc pass covers only the share (see main).
TRACE_SHARE = 0.25
HARD_LIMIT_S = 150  # stop starting rounds after this, so every run ends within 180 s

SETUP_PROBE = (
    "import depcalc, depcalc.cli, sys, time\n"
    "sys.stdout.write(repr(time.monotonic()) + ' ' + depcalc.__file__)\n"
)


def spawn_setup() -> float:
    """Wall time from spawning a fresh interpreter to having imported
    depcalc and depcalc.cli."""
    start = monotonic()
    done = subprocess.run([sys.executable, "-c", SETUP_PROBE],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    stamp, path = done.stdout.split(" ", 1)
    if not Path(path).resolve().is_relative_to(SRC):
        raise RuntimeError(f"fresh interpreter imported depcalc from {path}")
    return float(stamp) - start


class SetupProbe:
    """setup_s: the least of SETUP_REPEATS spawns, spread evenly between the
    rounds of the run (outside op timing), after one unmeasured spawn that
    writes bytecode.  Other load on the machine only ever adds time to a
    spawn; spawn times have two modes about 40% apart, and slow spells last
    seconds, so the least of spawns spread over the run is far steadier
    between runs than the median, or than the least of one burst."""

    def __init__(self, rounds: int):
        self.rounds = rounds
        self.samples: list[float] = []
        spawn_setup()

    def after_round(self, k: int) -> None:
        due = min(SETUP_REPEATS, SETUP_REPEATS * (k + 1) // self.rounds)
        while len(self.samples) < due:
            self.samples.append(spawn_setup())

    def value(self) -> float:
        while len(self.samples) < SETUP_REPEATS:  # the run stopped early
            self.samples.append(spawn_setup())
        return min(self.samples)


def latency_metrics(latencies: list[float]) -> dict:
    ordered = sorted(latencies)
    return {
        "ops_per_s": (len(ordered) / sum(ordered), "1/s"),
        "latency_p50_ms": (statistics.median(ordered) * 1e3, "ms"),
        "latency_p99_ms": (statistics.quantiles(ordered, n=100)[98] * 1e3, "ms"),
    }


# -- traced run ---------------------------------------------------------------

def trace_specs():
    """(module, function, span name, mem, post, pre, on_error) for the tracer."""
    import depcalc as D
    import oracle as O

    def listify(args):
        return (args[0], list(args[1])) + tuple(args[2:])

    def pairs(tracer, args, result):
        tracer.counts["poset.from_pairs.pairs_in"] += len(args[1])
        tracer.counts["poset.from_pairs.pairs_out"] += len(result.pairs())

    def nodes(tracer, args, result):
        tracer.counts["structure_maps.proof_nodes"] += O.proof_nodes(result)

    def rejected(tracer, err):
        if isinstance(err, (D.NotInclusion, D.NotExpressible)):
            tracer.counts["structure_maps.rejected"] += 1

    def covers(tracer, args, result):
        tracer.counts["operad.covers_out"] += len(result)

    def positions(tracer, args, result):
        tracer.counts["polynomial.positions_out"] += result.positions

    def layers(tracer, args, result):
        tracer.counts["diagram.layers_out"] += len(result[1].layers)

    return [
        ("poset", "from_pairs", "poset.from_pairs", False, pairs, listify, None),
        ("expressible", "find_z", "expressible.find_z", True, None, None, None),
        ("expressible", "decompose", "expressible.decompose", True, None, None, None),
        ("expression", "evaluate", "expression.evaluate", False, None, None, None),
        ("expression", "parse_expression", "expression.parse", False, None, None, None),
        ("structure_maps", "derive_structure_map", "structure_maps.derive", True, nodes, None,
         rejected),
        ("structure_maps", "verify_proof", "structure_maps.verify", True, None, None, None),
        ("structure_maps", "format_proof", "structure_maps.format", False, None, None, None),
        ("tropical", "schedule", "tropical.schedule", False, None, None, None),
        ("operad", "expressible_covers", "operad.expressible_covers", True, covers, None, None),
        ("polynomial", "dirichlet", "polynomial.dirichlet", False, positions, None, None),
        ("polynomial", "compose", "polynomial.compose", False, positions, None, None),
        ("polynomial", "boxtimes_poly", "polynomial.boxtimes_poly", False, positions, None, None),
        ("diagram", "diagram_realizing", "diagram.diagram_realizing", True, layers, None, None),
    ]


CLI_SUBCOMMANDS = ["check", "decompose", "eval", "derive", "tropical", "covers", "intersect",
                   "poly-ox", "poly-tri", "poly-boxtimes", "diagram-validate",
                   "diagram-edge-poset", "diagram-decorate"]
CALLS = ["expressible.find_z", "expressible.decompose", "poset.from_pairs",
         "structure_maps.derive", "structure_maps.verify", "tropical.schedule",
         "operad.expressible_covers", "diagram.diagram_realizing"]
SELF = CALLS + ["structure_maps.format", "expression.evaluate", "expression.parse"]
MEM = ["expressible.find_z", "expressible.decompose", "structure_maps.derive",
       "structure_maps.verify", "operad.expressible_covers", "diagram.diagram_realizing"]
COUNTS = ["poset.from_pairs.pairs_in", "poset.from_pairs.pairs_out",
          "structure_maps.proof_nodes", "structure_maps.rejected", "operad.covers_out",
          "polynomial.positions_out", "diagram.layers_out",
          "cli.exit.0", "cli.exit.1", "cli.exit.2", "cli.exit.other"]
# Memo caches whose hit ratio is reported while the function still has one.
CACHES = [("expressible.find_z", "expressible", "find_z"),
          ("structure_maps.derive", "structure_maps", "_derive")]


def cache_stats(module: str, attr: str):
    fn = getattr(sys.modules[f"depcalc.{module}"], attr, None)
    info = getattr(fn, "cache_info", None)
    return None if info is None else info()


def layer_metrics(tracer, before: dict) -> dict:
    metrics = {}
    for name in CALLS:
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
    for name in SELF:
        metrics[f"{name}.self_s"] = (tracer.self_s[name], "s")
    for name in COUNTS:
        metrics[name] = (tracer.counts[name], "count")
    for sub in CLI_SUBCOMMANDS:
        metrics[f"cli.{sub}.calls"] = (tracer.calls[f"cli.{sub}"], "count")
        metrics[f"cli.{sub}.self_s"] = (tracer.self_s[f"cli.{sub}"], "s")
    for name, module, attr in CACHES:
        start, end = before.get(name), cache_stats(module, attr)
        if start is None or end is None:
            continue  # the memo cache is gone: the metric is absent, not zero
        hits, misses = end.hits - start.hits, end.misses - start.misses
        metrics[f"{name}.cache_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0,
                                              "ratio")
    return metrics


def child_metrics(args, rounds: int, *extra: str) -> dict:
    """Metrics of this benchmark run over `rounds` rounds in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--rounds", str(rounds),
           *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=HARD_LIMIT_S, check=True)
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {name: (m["value"], m["unit"]) for name, m in metrics.items()}


# -- main ---------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="sets the work: seconds x the workload's rounds per second")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="run exactly this many rounds and skip setup_s "
                             "(the memory pass of --trace 1)")
    parser.add_argument("--memory", action="store_true",
                        help="with --trace 1 --rounds: report only tracemalloc peaks per span")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "depcalc" / "__init__.py").is_file():
        print(f"error: no depcalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import depcalc

    if not Path(depcalc.__file__).resolve().is_relative_to(SRC):
        print(f"error: depcalc was imported from {depcalc.__file__}", file=sys.stderr)
        return 2
    import workloads as W
    from spans import Tracer

    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}",
              file=sys.stderr)
        return 2
    cls = W.WORKLOADS[args.workload]
    traced = args.trace == 1
    helper = args.rounds is not None
    rounds = max(1, round(args.seconds * cls.rounds_per_s * (TRACE_SHARE if traced else 1)))
    rounds = args.rounds if helper else rounds
    probe = None if traced or helper else SetupProbe(rounds)

    WORK.mkdir(exist_ok=True)
    workload = cls(args.seed, WORK / f"{args.workload}-{args.seed}-{os.getpid()}")
    tracer = Tracer(track_memory=args.memory) if traced else None
    before = {}
    if traced:
        before = {name: cache_stats(module, attr) for name, module, attr in CACHES}
        tracer.instrument("depcalc", trace_specs())
    run = W.Run(tracer)
    start = perf_counter()
    min_ops = 0 if helper else MIN_OPS
    try:
        done = W.drive(workload, run, rounds, start + HARD_LIMIT_S, min_ops,
                       probe.after_round if probe else None)
    finally:
        if tracer is not None:
            tracer.restore()
        if hasattr(workload, "close"):
            workload.close()
    wall = perf_counter() - start

    attempted, failed = len(run.latencies), sum(run.failed.values())
    timing = latency_metrics(run.paced_latencies())
    raw = latency_metrics(run.latencies)
    if args.memory:
        metrics = {f"{name}.peak_alloc_kb": (tracer.peak_kb.get(name, 0.0), "KiB")
                   for name in MEM}
    elif traced:
        metrics = layer_metrics(tracer, before)
        if not helper:
            # The spans above were timed with tracemalloc off.  The allocation
            # peaks come from a fresh process over the first `rounds` rounds:
            # tracemalloc slows sp-large's find_z about sevenfold, and every
            # round has the same size mix, so fewer rounds see the same peaks.
            metrics.update(child_metrics(args, min(rounds, done), "--trace", "1", "--memory"))
            # Untraced ops/s over traced ops/s, measured in this process:
            # the untraced time is the ops' time less the tracer's own.
            op_time = sum(run.latencies)
            metrics["trace.overhead_ratio"] = (op_time / (op_time - tracer.own_s), "ratio")
        tracer.write(WORK / f"spans-{args.workload}.jsonl")
    else:
        metrics = dict(timing)
        if probe is not None:
            metrics["setup_s"] = (probe.value(), "s")
        metrics["success_rate"] = ((attempted - failed) / attempted, "ratio")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    above = attempted - int(attempted * 0.99)
    if done < rounds:
        print(f"warning: stopped after {done} of {rounds} rounds at the {HARD_LIMIT_S} s limit",
              file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} ops in "
          f"{done} rounds, {wall:.1f} s; error_rate={failed / attempted:.4f} "
          f"({failed} failed, {sum(run.wrong.values())} wrong answers); "
          f"latency samples={attempted} ({above} beyond p99); "
          f"{len(run.pace_s)} reference samples, median {statistics.median(run.pace_s) * 1e3:.3f} ms "
          f"(nominal {W.REFERENCE_S * 1e3:g} ms); unscaled: "
          + ", ".join(f"{name} {value:.6g}" for name, (value, _) in raw.items()))
    for op, count in sorted(run.failed.items()):
        print(f"  failed {op}: {count} ({run.wrong[op]} wrong), e.g. {run.reasons[op]}",
              file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not run.wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
