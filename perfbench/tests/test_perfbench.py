"""Tests of the benchmark itself: oracle, generators and failure accounting.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import depcalc as D
import generators as G
import oracle as O
import workloads as W

ROOT = Path(__file__).resolve().parents[2]
ZIGZAG_REL = {(0, 1), (2, 1), (2, 3)}


# -- oracle on hand cases -------------------------------------------------------

def test_zigzag_and_its_witness():
    assert O.has_zigzag(4, ZIGZAG_REL)
    assert O.check_witness(D.find_z(D.ZIGZAG).elements, ZIGZAG_REL) is None
    assert O.check_witness((0, 1, 2, 3), ZIGZAG_REL) is None
    assert O.check_witness((2, 1, 0, 3), ZIGZAG_REL) is not None
    shifted = {(i + 1, j + 1) for i, j in ZIGZAG_REL}  # the zig-zag 1 < 2 > 3 < 4
    assert O.check_witness((1, 2, 3, 4), ZIGZAG_REL, shifted) is None
    assert not O.has_zigzag(4, O.close(4, [(0, 1), (1, 2), (2, 3)]))


def test_chain3_schedule():
    rel = O.close(3, [(0, 1), (1, 2)])
    plan = D.schedule(D.chain(3), [1, 2, 3])
    assert O.makespan(3, rel, [1, 2, 3]) == 6
    assert O.check_schedule(3, rel, [1, 2, 3], plan) is None
    wrong = D.Schedule(plan.start, plan.finish, Fraction(5), plan.critical_chain)
    assert O.check_schedule(3, rel, [1, 2, 3], wrong) is not None


def test_antichain3_covers():
    covers = [set(c.pairs()) for c in D.expressible_covers(D.antichain(3))]
    assert O.check_covers(3, set(), covers) is None
    assert O.check_covers(3, set(), covers[:1]) is not None  # one chain meets in itself


def test_expression_and_proof_evaluators():
    assert O.eval_text("(tri x0 (ox x1 x2))") == ([0, 1, 2], {(0, 1), (0, 2)})
    elems, rel = O.eval_expr(D.parse_expression("(tri x0 (ox x1 x2))"))
    assert sorted(elems) == [0, 1, 2] and rel == {(0, 1), (0, 2)}
    p, q = D.antichain(4), D.chain(4)
    proof = D.derive_structure_map(p, q)
    assert O.check_proof(4, set(), set(q.pairs()), proof) is None
    assert O.check_proof(4, set(), set(), proof) is not None
    assert O.check_proof_text(4, set(), set(q.pairs()), D.format_proof(proof)) is None


def test_polynomial_arithmetic():
    assert O.signature(O.ox_counts([2, 1], [1, 0])) == (2, 1, 0, 0)
    assert O.signature(O.tri_counts([2, 1], [1, 0])) == (2, 1, 1, 1, 0, 0)
    chain2 = O.close(2, [(0, 1)])
    assert O.sp_box_counts(2, chain2, [[2, 1], [1, 0]]) == O.tri_counts([2, 1], [1, 0])
    assert O.sp_box_counts(4, ZIGZAG_REL, [[1]] * 4) is None


def test_sp_box_rule_matches_library_on_small_posets():
    rng = G.rng_for(0, "box")
    for _ in range(40):
        n = rng.randint(1, 3)
        rel = G.relation(G.sp_tree(rng, n))
        parts = [[rng.randint(0, 2) for _ in range(rng.randint(1, 3))] for _ in range(n)]
        p = D.from_pairs(n, sorted(rel))
        got = D.boxtimes_poly(p, [D.FinitePolynomial(tuple(x)) for x in parts],
                              D.linear_extensions(p)[0])
        assert O.signature(got.directions) == O.signature(O.sp_box_counts(n, rel, parts))


def test_generated_diagram_traces_to_its_edge_poset():
    from depcalc import diagram as dg
    rng = G.rng_for(0, "diagram")
    for _ in range(10):
        pg_json, diag_json, names, rel = G.random_diagram(rng, 6)
        pg = dg.polygraph_from_json_dict(pg_json)
        diag = dg.diagram_from_json_dict(pg, diag_json)
        assert dg.validate_diagram(pg, diag) is True
        assert O.trace_diagram(diag) == (names, rel)


# -- generators ------------------------------------------------------------------

def test_tree_relation_and_generating_pairs_agree():
    rng = G.rng_for(0, "trees")
    for planted in (False, True):
        tree = G.sp_tree(rng, 30, planted=planted)
        rel = G.relation(tree)
        assert O.close(30, G.generating_pairs(tree)) == rel
        assert rel <= G.relation(G.coarsen(rng, tree, 0.5))
    assert O.has_zigzag(8, G.relation(G.sp_tree(rng, 8, planted=True)))
    assert O.eval_text(G.expression_text(tree := G.sp_tree(rng, 9)))[1] == G.relation(tree)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_one_seed_generates_identical_inputs(name, tmp_path):
    def snapshot(folder):
        workload = W.WORKLOADS[name](7, tmp_path / folder)
        tasks = workload.round(0) + workload.round(1)
        if name != "cli-mix":
            return repr(tasks)
        files = sorted((tmp_path / folder).rglob("*.json"))
        data = [(f.relative_to(tmp_path / folder).as_posix(), f.read_bytes()) for f in files]
        argv = [[a.replace(str(tmp_path / folder), "") for a in t["argv"]] for t in tasks]
        return data, argv

    assert snapshot("a") == snapshot("b")
    if name == "sp-large":
        assert snapshot("a") != repr(W.WORKLOADS[name](8).round(0) + W.WORKLOADS[name](8).round(1))


def test_derive_sweep_scarce_sizes_do_not_run_out():
    S = W.DeriveSweep
    longest = 60 * int(S.rounds_per_s)  # rounds of a 60 s run
    for cell, period in S.PERIOD.items():
        assert period & (period - 1) == 0
        draws = -(-longest // period)
        assert draws <= S.AVAILABLE[cell] / 2 < -(-longest // (period // 2)), cell
    sweep = S(11)
    for k in range(longest):  # only the scarce cells: every one finds a fresh pair
        rng = G.rng_for(sweep.seed, sweep.name, k)
        for kind, n in S.sizes(k):
            if n < 5:
                sweep.fresh_pair(rng, kind, n)
    assert len(sweep.seen) == sum(-(-longest // period) for period in S.PERIOD.values())


def test_derive_sweep_sizes_are_the_same_in_every_run():
    S = W.DeriveSweep
    assert all(len(S.sizes(k)) == 20 for k in range(300))
    shares = S.size_shares(30 * int(S.rounds_per_s))
    by_size = {n: sum(v for (_, m), v in shares.items() if m == n) for n in (3, 4, 5, 6)}
    assert round(by_size[3], 3) == 0.001 and round(by_size[4], 3) == 0.007
    assert round(by_size[5], 3) == 0.500 and round(by_size[6], 3) == 0.492
    kinds = {kind: sum(v for (kd, _), v in shares.items() if kd == kind) for kind in S.MIX}
    assert kinds == pytest.approx({"inclusion": 0.6, "non-inclusion": 0.3, "non-expressible": 0.1})


def test_derive_sweep_key_tells_pairs_apart():
    key = W.DeriveSweep.key
    a, b = frozenset({(0, 1)}), frozenset({(1, 0)})
    keys = {key(kind, n, p, q) for kind in W.DeriveSweep.MIX for n in (5, 6)
            for p in (a, b) for q in (a, b)}
    assert len(keys) == 24
    assert key("inclusion", 6, frozenset({(5, 4)}), a) != key("inclusion", 6, a, a)


# -- failure accounting -----------------------------------------------------------

def test_derive_sweep_round_passes_the_oracle():
    run = W.Run()
    workload = W.DeriveSweep(3)
    for k in range(3):
        for task in workload.round(k):
            workload.run(run, task)
    assert len(run.latencies) > 60 and not run.failed


def test_cli_mix_counts_only_the_known_defects(tmp_path):
    run = W.Run()
    workload = W.CliMix(5, tmp_path / "cli")
    for k in range(3):  # three rounds rotate through every exit-2 input
        for task in workload.round(k):
            workload.run(run, task)
    workload.close()
    assert not run.wrong, run.reasons
    assert set(run.failed) <= {"check", "eval"}, run.reasons


def test_paced_latencies_scale_each_op_by_the_samples_around_it():
    run = W.Run()
    run.latencies = [0.010, 0.020, 0.030, 0.040]
    # Two samples: after op 2 the reference took twice its nominal time,
    # after op 4 half of it.  Each op takes the median of the (up to) five
    # samples nearest its own: both windows hold both samples here.
    run.pace_marks, run.pace_s = [2, 4], [2 * W.REFERENCE_S, W.REFERENCE_S / 2]
    scale = W.REFERENCE_S / (2 * W.REFERENCE_S)  # upper median of two samples
    assert run.paced_latencies() == pytest.approx([t * scale for t in run.latencies])

    run = W.Run()
    run.latencies = [0.010] * 12
    run.pace_marks = [2, 4, 6, 8, 10, 12]
    run.pace_s = [W.REFERENCE_S] * 2 + [10 * W.REFERENCE_S] + [W.REFERENCE_S] * 3
    # One stray slow sample is outvoted by its neighbours.
    assert run.paced_latencies() == pytest.approx(run.latencies)


def test_pace_samples_after_enough_op_time_and_at_the_end():
    run = W.Run()
    run.call(lambda: None)
    run.pace()
    assert run.pace_s == []  # far less than PACE_EVERY_S of op time so far
    run.unpaced = W.PACE_EVERY_S
    run.pace()
    assert run.pace_marks == [1]
    run.call(lambda: None)
    assert len(run.paced_latencies()) == 2 and run.pace_marks == [1, 2]


def test_reference_samples_run_without_the_collector(monkeypatch):
    seen = []
    monkeypatch.setattr(W, "reference_task", lambda: seen.append(gc.isenabled()))
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        try:
            run = W.Run()
            run.pace(force=True)  # no op yet: no sample
            run.call(lambda: None)
            run.pace(force=True)
            assert gc.isenabled() is enabled  # the caller's setting is kept
        finally:
            gc.enable()
    assert seen == [False, False]


def test_a_wrong_answer_counts_as_an_error(monkeypatch):
    real = D.schedule

    def off_by_one(p, times):
        plan = real(p, times)
        return D.Schedule(plan.start, plan.finish, plan.makespan + 1, plan.critical_chain)

    monkeypatch.setattr(D, "schedule", off_by_one)
    run = W.Run()
    task = {"kind": "sp", "n": 3, "rel": O.close(3, [(0, 1)]), "pairs": [(0, 1)],
            "rel_q": O.close(3, [(0, 1), (1, 2)]), "q": D.from_pairs(3, [(0, 1), (1, 2)]),
            "times": [1, 2, 3]}
    W.SpLarge(1).run(run, task)
    assert run.failed["schedule"] == 1 and run.wrong["schedule"] == 1
    assert sum(run.failed.values()) == 1


def test_a_crash_counts_as_failed_but_not_wrong(tmp_path):
    run = W.Run()
    task = {"sub": "eval", "argv": ["eval", "--expr", W.DEEP_EVAL],
            "check": W._check_deep_eval, "valid": True}
    W.CliMix(1, tmp_path).run(run, task)
    assert len(run.latencies) == 1
    assert sum(run.failed.values()) <= 1 and not run.wrong


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and "{" not in done.stdout


def test_result_line_shape():
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "derive-sweep",
                           "--seed", "2", "--seconds", "1", "--trace", "0", "--rounds", "5"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] > 0 and result["failed"] == 0
    assert {"ops_per_s", "latency_p50_ms", "latency_p99_ms", "success_rate",
            "peak_rss_mb"} <= set(result["metrics"])
