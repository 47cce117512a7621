"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. The statistical criteria
compare sample means with two standard errors of slack against bounds on
expectations; round bounds use raw per-trial counts.

The containment criterion is a property-based proxy: the exact worst-case
scheduler is not computable, so heuristic adversaries sample the schedule
space, and bounds that hold against any scheduler must hold against them.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest

from mislab.algorithms import get_algorithm
from mislab.analysis import (
    all_maximal_independent_sets,
    is_legitimate,
    locally_alone_set,
)
from mislab.cli import main
from mislab.engine import Configuration, is_stable
from mislab.graphs import (
    erdos_renyi,
    generate_graph,
    grid,
    make_graph,
    path,
    ring,
    safe_zone,
    sized_params,
    star,
)
from mislab.harness import (
    RunSpec,
    build_graph,
    legitimacy_round_bound,
    prepare,
    reference_replay,
    run_trial,
    run_trials,
)
from reference import safe_alone_set, traced_trial

ANON = get_algorithm("anonymous")
BYZ = get_algorithm("byzantine")


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {num} {name}: PASS")


def mean_sem(values):
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


def test_c1_golden_trace():
    with criterion(1, "golden trace"):
        start = time.time()
        report = reference_replay()
        elapsed = time.time() - start
        assert report.ok, report.problems
        expected_colors = ((1, 1, 1, 1), (1, 1), (1, 1, 1), (1, 1),
                           (5, 5), (5, 5), (5, 5), (5,))
        ledger = report.outcome.ledger
        assert tuple(ledger.move_colors) == expected_colors
        assert ledger.fresh_sets == {
            1: frozenset({0, 1, 2, 3}), 5: frozenset({0, 1})}
        example = make_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        assert locally_alone_set(example, report.outcome.final) == frozenset({1, 3})
        assert elapsed < 1.0, f"replay took {elapsed:.3f}s"


def test_c2_expected_moves_bound():
    with criterion(2, "expected moves <= 3n^2"):
        graphs = (("ring", {}), ("erdos_renyi", {"p": 0.3}), ("complete", {}))
        daemons = ("random_subset", "conflict_greedy", "singleton", "synchronous")
        for n in (4, 8, 16, 32, 64):
            for kind, extra in graphs:
                for daemon in daemons:
                    spec = RunSpec(algorithm="anonymous", graph=kind, n=n,
                                   graph_seed=1, init="random", daemon=daemon,
                                   trials=200, master_seed=20_000 + n,
                                   check_invariants=False, **extra)
                    records = [o.record for o in run_trials(spec)]
                    assert all(r.converged and not r.ceiling_hit for r in records)
                    mean, sem = mean_sem([r.moves for r in records])
                    bound = 3 * n * n
                    assert mean + 2 * sem <= bound, (
                        f"n={n} {kind} {daemon}: {mean:.1f}+2*{sem:.2f} > {bound}")


SMALL_GRAPHS = (
    make_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    ring(6),
    path(5),
    star(4),
    grid(2, 3),
    erdos_renyi(10, 0.3, seed=3),
    erdos_renyi(12, 0.25, seed=9),
)


def test_c3_stability_characterization():
    with criterion(3, "stable <=> settled set maximal"):
        # stable configurations reached by real runs land in the oracle's list
        for n, daemon in ((6, "random_subset"), (9, "conflict_greedy"),
                          (12, "singleton"), (12, "synchronous")):
            spec = RunSpec(algorithm="anonymous", graph="erdos_renyi", n=n,
                           p=0.35, graph_seed=n, init="random", daemon=daemon,
                           trials=50, master_seed=31_000 + n,
                           check_invariants=False)
            g = build_graph(spec)
            oracle = all_maximal_independent_sets(g)
            for outcome in run_trials(spec):
                assert outcome.record.converged
                assert is_stable(ANON, g, outcome.final)
                assert locally_alone_set(g, outcome.final) in oracle

        # exhaustively sampled configurations: stability iff maximality
        import random as stdlib_random

        sampler = stdlib_random.Random(424242)
        for g in SMALL_GRAPHS:
            oracle = all_maximal_independent_sets(g)
            for _ in range(1000):
                cfg = Configuration(
                    tuple(sampler.random() < 0.5 for _ in range(g.n)))
                stable = is_stable(ANON, g, cfg)
                maximal = locally_alone_set(g, cfg) in oracle
                assert stable == maximal, (g, cfg.s)


def _trace_transitions_anonymous(spec, trial, plan):
    outcome, trace = traced_trial(spec, trial, plan=plan)
    g = outcome.graph
    prev = locally_alone_set(g, trace.initial)
    checked = 0
    for step in trace.steps:
        current = locally_alone_set(g, step.config)
        assert prev <= current, "settled set lost a member"
        prev = current
        checked += 1
    return checked


def _trace_transitions_byzantine(spec, trial, byz, plan):
    outcome, trace = traced_trial(spec, trial, plan=plan)
    g = outcome.graph
    prev = safe_alone_set(g, byz, trace.initial)
    checked = 0
    for step in trace.steps:
        current = safe_alone_set(g, byz, step.config)
        assert prev <= current, "safe alone set lost a member"
        prev = current
        checked += 1
    return checked


def test_c4_monotonicity_suites():
    with criterion(4, "monotone growth over >= 10^4 transitions each"):
        # each spec is prepared once and shared by its trials
        specs = [RunSpec(algorithm="anonymous", graph="erdos_renyi", n=48,
                         p=0.15, graph_seed=6, init="random", daemon=daemon,
                         master_seed=51_000, check_invariants=False)
                 for daemon in ("singleton", "random_subset", "conflict_greedy")]
        plans = [prepare(spec) for spec in specs]
        checked = 0
        trial = 0
        while checked < 10_000:
            checked += _trace_transitions_anonymous(
                specs[trial % 3], trial, plans[trial % 3])
            trial += 1
        assert checked >= 10_000

        byz = frozenset({0, 24})
        # unfair scheduling is fine: growth is a per-transition fact,
        # so run to a move budget without requiring convergence
        spec = RunSpec(algorithm="byzantine", graph="erdos_renyi", n=48,
                       p=0.15, graph_seed=6, init="random",
                       daemon="random_subset", master_seed=52_000,
                       move_ceiling=400, check_invariants=False,
                       byzantine=tuple(byz),
                       strategies=((0, "oscillate", None),
                                   (24, "uniform_random", None)))
        plan = prepare(spec)
        checked = 0
        trial = 0
        while checked < 10_000:
            checked += _trace_transitions_byzantine(spec, trial, byz, plan)
            trial += 1
        assert checked >= 10_000


def test_c5_degree_stabilization_after_one_round():
    with criterion(5, "degree counters correct from the first round boundary"):
        cells = []
        for kind, n in (("ring", 16), ("grid", 16), ("erdos_renyi", 12)):
            params = sized_params(kind, n)
            if kind == "erdos_renyi":
                params["p"] = 0.3
            for daemon in ("synchronous", "aged_fair"):
                for byznodes in ((0,), (0, n // 2)):
                    # hold past first legitimacy so every trial crosses round
                    # boundaries worth checking
                    cells.append(RunSpec(
                        algorithm="byzantine", graph=kind, **params,
                        graph_seed=2, init="random", daemon=daemon,
                        master_seed=60_000, trials=10, hold_rounds=2,
                        byzantine=byznodes,
                        strategies=tuple(
                            (b, ("uniform_random", "degree_liar")[i % 2], None)
                            for i, b in enumerate(byznodes)),
                        check_invariants=False))
        verified_trials = 0
        for spec in cells:
            plan = prepare(spec)
            g = plan.graph
            byz = set(spec.byzantine)
            for t in range(spec.trials):
                _, trace = traced_trial(spec, t, plan=plan)
                assert trace.round_ends, "trial ended before one full round"
                first_round_end = trace.round_ends[0]
                for idx in range(first_round_end, len(trace.steps) + 1):
                    cfg = trace.initial if idx == 0 else trace.steps[idx - 1].config
                    for u in range(g.n):
                        if u not in byz:
                            assert cfg.x[u] == g.degree(u), (
                                f"node {u} has stale degree after round 1")
                verified_trials += 1
        assert verified_trials == sum(s.trials for s in cells)


def test_c6_exponential_inequality():
    with criterion(6, "(1 - 1/(k+1))^k > 1/e for k in [0, 10^6]"):
        inv_e = math.exp(-1.0)
        for k in range(1_000_001):
            assert (1.0 - 1.0 / (k + 1.0)) ** k > inv_e, f"fails at k={k}"


def test_c7_color_statistics():
    with criterion(7, "color accounting and per-color bounds"):
        sizes, move_counts, successes = [], [], []
        trials_run = 0
        for kind, n, p in (("erdos_renyi", 14, 0.25), ("ring", 16, None)):
            for daemon in ("random_subset", "conflict_greedy", "synchronous"):
                for t in range(20):
                    spec = RunSpec(
                        algorithm="anonymous", graph=kind, n=n,
                        **({"p": p} if p is not None else {}),
                        graph_seed=7, init="random", daemon=daemon,
                        master_seed=70_000 + t, instrument=True,
                        check_invariants=False)
                    outcome = run_trial(spec, t)
                    trials_run += 1
                    # ledger construction enforces one color per executed move
                    assert outcome.record.converged
                    assert not outcome.record.ceiling_hit
                    assert outcome.ledger.all_dead(), "a color survived the run"
                    for rec in outcome.ledger.records.values():
                        sizes.append(rec.size)
                        move_counts.append(rec.withdrawal_moves)
                        successes.append(1 if rec.success else 0)
        assert trials_run >= 100
        mean_moves, sem_moves = mean_sem(move_counts)
        mean_size, _ = mean_sem(sizes)
        assert mean_moves <= 2 * mean_size + 2 * sem_moves, (
            f"per-color moves {mean_moves:.3f} exceed "
            f"2*{mean_size:.3f}+2*{sem_moves:.3f}")
        rate, sem_rate = mean_sem(successes)
        assert rate >= 2.0 / 3.0 - 2 * sem_rate, (
            f"success rate {rate:.4f} below 2/3 - 2*{sem_rate:.4f}")


def test_c8_byzantine_containment():
    with criterion(8, "containment within the round bound, linear growth"):
        strategies = ("always_top", "oscillate", "degree_liar", "uniform_random")
        family_means = {}
        for kind in ("ring", "grid"):
            for n in (16, 32, 64):
                params = sized_params(kind, n)
                g = generate_graph(kind, **params)
                bound = legitimacy_round_bound(g)
                for b_count in (1, 2):
                    byznodes = (0,) if b_count == 1 else (0, n // 2)
                    for strategy in strategies:
                        for daemon in ("synchronous", "aged_fair"):
                            spec = RunSpec(
                                algorithm="byzantine", graph=kind, **params,
                                graph_seed=0, init="random", daemon=daemon,
                                fairness=n if daemon == "aged_fair" else None,
                                trials=100, master_seed=80_000 + n,
                                round_ceiling=bound + 1,
                                byzantine=byznodes,
                                strategies=tuple(
                                    (b, strategy, None) for b in byznodes),
                                check_invariants=False)
                            records = [o.record for o in run_trials(spec)]
                            within = sum(
                                1 for r in records
                                if r.converged and r.rounds <= bound)
                            assert within >= 95, (
                                f"{kind} n={n} |B|={b_count} {strategy} "
                                f"{daemon}: only {within}/100 within {bound}")
                            mean_rounds, _ = mean_sem(
                                [r.rounds for r in records if r.converged])
                            key = (kind, b_count, strategy, daemon)
                            family_means.setdefault(key, []).append(
                                (n, g.max_degree, mean_rounds))
        # growth proxy: normalized mean rounds must not outgrow the smallest
        # size by more than 2x within a family
        for key, points in family_means.items():
            points.sort()
            base_n, base_delta, base_mean = points[0]
            base_ratio = max(base_mean, 1.0) / (base_delta * base_n)
            for n, delta, mean_rounds in points[1:]:
                ratio = max(mean_rounds, 1.0) / (delta * n)
                assert ratio <= 2.0 * base_ratio, (
                    f"{key}: rounds grow superlinearly in degree*size "
                    f"({base_ratio:.4f} -> {ratio:.4f})")


def test_c9_reproducibility(tmp_path):
    with criterion(9, "byte-identical CSV for identical specs"):
        spec = tmp_path / "r.spec"
        spec.write_text("""
algorithm = byzantine
graph = grid
rows = 4
cols = 4
daemon = aged_fair
fairness = 16
init = random
trials = 25
master_seed = 90210
byzantine = 0, 15
strategies = 0:degree_liar, 15:oscillate
""", encoding="utf-8")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["trial", str(spec), "--out", str(a)]) == 0
        assert main(["trial", str(spec), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

        sweep_spec = tmp_path / "s.spec"
        sweep_spec.write_text("""
algorithm = anonymous
graph = ring
daemon = conflict_greedy
init = random
trials = 30
master_seed = 777
sizes = 4, 8, 16
""", encoding="utf-8")
        sa, sb = tmp_path / "sa.csv", tmp_path / "sb.csv"
        assert main(["sweep", str(sweep_spec), "--out", str(sa)]) == 0
        assert main(["sweep", str(sweep_spec), "--out", str(sb)]) == 0
        assert sa.read_bytes() == sb.read_bytes()
