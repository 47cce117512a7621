"""The incremental engine against a slow whole-graph reference.

`reference_trial` is the trial loop as it was before activability and the
safe alone set were kept across transitions: a full `activable_map` rescan
after every transition, a round tracker that walks all n nodes, an n-long
list of fairness ages rewritten every transition, `is_legitimate` on every
configuration, and invariant checks (`_check_step_invariants`) that
recompute the settled and safe alone sets from scratch. `run_trial` must
agree with it exactly: moves, draws, configurations, round ends, every
TrialRecord field and every error message.

The stepper's counted state (s, x, deg and up, the number of up neighbors)
is checked after every transition against a recount and against the
paper's N(u)-scanning guards, and the color ledger, which reads that state,
against the ledger over whole before/after configurations.
"""

import io
import os
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mislab import analysis, harness
from mislab.algorithms import AnonymousMIS, ByzantineMIS, get_algorithm
from mislab.analysis import (
    SafeAloneTracker,
    is_legitimate,
    locally_alone_set,
    write_ledger_csv,
)
from mislab.byzantine import STRATEGY_KINDS, make_strategy
from mislab.daemons import DAEMON_KINDS, AgedFairDaemon, make_daemon
from mislab.engine import (
    BYZ,
    CANDIDACY,
    INITIAL_PRESETS,
    REFRESH,
    TRY_CANDIDACY,
    TRY_WITHDRAW,
    WITHDRAW,
    Activity,
    Configuration,
    RngStream,
    activable_map,
    derive_seed,
    initial_configuration,
)
from mislab.errors import EngineError, InvariantViolation, replace
from mislab.graphs import generate_graph, safe_zone
from mislab.harness import (
    RunSpec,
    TrialRecord,
    _strategy_map,
    build_graph,
    default_move_ceiling,
    default_round_ceiling,
    prepare,
    run_trial,
)
import reference
from reference import (
    Move,
    PaperAnonymousCommands,
    Trace,
    TraceStep,
    apply_transition,
    closed_neighbourhood,
    counted_state,
    daemon_view,
    forced_draws,
    paper_rules,
    safe_alone_set,
    scripted_ledger,
    traced_trial,
    whole_configuration_ledger,
)


class WholeGraphRoundTracker:
    """Round accounting by a scan of every node per transition."""

    def __init__(self, n, byz):
        self.n = n
        self.byz = byz
        self.rounds_completed = 0
        self.transitions_in_round = 0
        self._satisfied = [False] * n

    def advance(self, before, moved, after) -> bool:
        self.transitions_in_round += 1
        for u in range(self.n):
            if self._satisfied[u]:
                continue
            if u in moved:
                self._satisfied[u] = True
            elif u not in self.byz and (u not in before or u not in after):
                self._satisfied[u] = True
        if all(self._satisfied):
            self.rounds_completed += 1
            self.transitions_in_round = 0
            self._satisfied = [False] * self.n
            return True
        return False

    @property
    def rounds_elapsed(self) -> int:
        return self.rounds_completed + (1 if self.transitions_in_round else 0)


class AgeList(list):
    """Plain per-node ages; the invariant check reads the max over all nodes."""

    def oldest(self) -> int:
        return max(self, default=0)

    def advance(self, before, moved, after) -> None:
        """Age every node by one transition: 0 for a mover or a node off the
        map before or after it, one more for any other node."""
        for u in range(len(self)):
            self[u] = (self[u] + 1 if u not in moved and u in before
                       and u in after else 0)


def _check_step_invariants(g, algo, byz, cfg, tracker, ages, fair_bound,
                           prev_settled, prev_safe) -> None:
    if prev_settled is not None:
        settled = locally_alone_set(g, cfg)
        if not prev_settled <= settled:
            raise InvariantViolation(
                f"settled set shrank: lost {sorted(prev_settled - settled)}")
    if prev_safe is not None:
        safe = safe_alone_set(g, byz, cfg)
        if not prev_safe <= safe:
            raise InvariantViolation(
                f"safe alone set shrank: lost {sorted(prev_safe - safe)}")
    if fair_bound is not None:
        worst = ages.oldest()
        if worst > fair_bound - 1:
            raise InvariantViolation(
                f"fairness bound {fair_bound} violated: a node waited {worst} "
                "transitions while activable")
    if algo.uses_x and tracker.rounds_completed >= 1:
        for u in range(g.n):
            if u not in byz and cfg.x[u] != g.degree(u):
                raise InvariantViolation(
                    f"node {u} has x={cfg.x[u]} != deg={g.degree(u)} after the "
                    "first round")


def reference_trial(spec: RunSpec, trial_index: int) -> tuple[TrialRecord, Trace]:
    g = build_graph(spec)
    algo = get_algorithm(spec.algorithm)
    byz = frozenset(spec.byzantine)
    byz_runs = spec.algorithm == "byzantine"
    strategies = _strategy_map(spec)
    seed = derive_seed(spec.master_seed, trial_index)
    rng = RngStream(seed)
    daemon = make_daemon(spec.daemon, g.n, fairness=spec.fairness,
                         density=spec.density, script=prepare(spec).script)
    cfg = initial_configuration(g, algo.uses_x, spec.init, rng)
    move_ceiling = spec.move_ceiling or default_move_ceiling(g.n)
    round_ceiling = spec.round_ceiling or default_round_ceiling(g)
    tracker = WholeGraphRoundTracker(g.n, byz)
    ages = AgeList([0] * g.n)
    trace = Trace(initial=cfg)

    moves_total = transitions = 0
    moves_by_rule: dict[str, int] = {}
    first_hit = None
    hit_completed_rounds = 0
    converged = ceiling_hit = False
    prev_settled = (locally_alone_set(g, cfg)
                    if spec.check_invariants and not byz else None)
    prev_safe = (safe_alone_set(g, byz, cfg)
                 if spec.check_invariants and byz_runs else None)
    activable = activable_map(algo, g, cfg, byz)
    while True:
        if byz_runs:
            if is_legitimate(g, byz, cfg):
                if first_hit is None:
                    first_hit = (moves_total, tracker.rounds_elapsed)
                    hit_completed_rounds = tracker.rounds_completed
                if tracker.rounds_completed - hit_completed_rounds >= spec.hold_rounds:
                    converged = True
                    break
        elif not activable:
            converged = True
            break
        if not activable:
            converged = byz_runs and first_hit is not None
            break
        if moves_total >= move_ceiling or tracker.rounds_completed >= round_ceiling:
            if byz_runs and first_hit is not None:
                converged = True
            else:
                ceiling_hit = True
            break

        nodes = daemon.select(g, daemon_view(cfg, activable, ages), activable,
                              rng)
        moves = [Move(u, activable[u]) for u in nodes]
        new_cfg, draws = apply_transition(algo, g, cfg, moves, rng, strategies)
        new_activable = activable_map(algo, g, new_cfg, byz)
        sorted_moves = tuple(sorted(moves, key=lambda m: m.node))
        moved = {m.node for m in sorted_moves}
        ended = tracker.advance(activable, moved, new_activable)
        transitions += 1
        moves_total += len(sorted_moves)
        for m in sorted_moves:
            moves_by_rule[m.rule] = moves_by_rule.get(m.rule, 0) + 1
        ages.advance(activable, moved, new_activable)
        if spec.check_invariants:
            _check_step_invariants(g, algo, byz, new_cfg, tracker, ages,
                                   daemon.fair_bound, prev_settled, prev_safe)
            if not byz:
                prev_settled = locally_alone_set(g, new_cfg)
            if byz_runs:
                prev_safe = safe_alone_set(g, byz, new_cfg)
        trace.steps.append(TraceStep(sorted_moves, draws, new_cfg))
        if ended:
            trace.round_ends.append(len(trace.steps))
        cfg, activable = new_cfg, new_activable

    if byz_runs:
        criterion, set_size = "legitimate", len(safe_alone_set(g, byz, cfg))
        moves_reported, rounds_reported = (
            first_hit if (converged and first_hit is not None)
            else (moves_total, tracker.rounds_elapsed))
    else:
        criterion, set_size = "stable", len(locally_alone_set(g, cfg))
        moves_reported, rounds_reported = moves_total, tracker.rounds_elapsed
    record = TrialRecord(
        trial=trial_index, seed=seed, moves=moves_reported,
        moves_by_rule=moves_by_rule, transitions=transitions,
        rounds=rounds_reported, converged=converged, criterion=criterion,
        set_size=set_size, ceiling_hit=ceiling_hit)
    return record, trace


def _result_or_error(fn):
    """(result, None) or (None, error text) for an engine error or violation."""
    try:
        return fn(), None
    except EngineError as exc:
        return None, f"{type(exc).__name__}: {exc}"


@st.composite
def trial_specs(draw, algorithms=("anonymous", "byzantine")):
    kind = draw(st.sampled_from(["ring", "grid", "erdos_renyi", "random_tree", "star"]))
    if kind == "grid":
        params = {"rows": draw(st.integers(1, 5)), "cols": draw(st.integers(1, 5))}
    elif kind == "star":
        params = {"leaves": draw(st.integers(1, 10))}
    else:
        params = {"n": draw(st.integers(1, 16))}
    if kind == "erdos_renyi":
        params["p"] = draw(st.sampled_from([0.1, 0.3, 0.6]))
    graph_seed = draw(st.integers(0, 1000))
    n = generate_graph(kind, seed=graph_seed, **params).n
    algorithm = draw(st.sampled_from(algorithms))
    byzantine, strategies = (), ()
    if algorithm == "byzantine":
        byzantine = tuple(draw(st.lists(st.integers(0, n - 1), unique=True,
                                        max_size=min(2, n))))
        strategies = tuple(
            (u, draw(st.sampled_from(STRATEGY_KINDS)),
             draw(st.none() | st.integers(0, 20)))
            for u in byzantine)
    daemon = draw(st.sampled_from(["synchronous", "aged_fair", "random_subset",
                                   "singleton", "conflict_greedy"]))
    spec = RunSpec(
        algorithm=algorithm, graph=kind, graph_seed=graph_seed, **params,
        daemon=daemon,
        fairness=draw(st.none() | st.integers(1, 6)),
        density=draw(st.sampled_from([0.2, 0.5, 1.0])),
        init=draw(st.sampled_from(INITIAL_PRESETS)),
        master_seed=draw(st.integers(0, 2**32)),
        move_ceiling=draw(st.just(0) | st.integers(1, 60)),
        round_ceiling=draw(st.just(0) | st.integers(1, 12)),
        byzantine=byzantine, strategies=strategies,
        hold_rounds=draw(st.integers(0, 2)),
        check_invariants=draw(st.booleans()),
    )
    return spec, draw(st.integers(0, 3))


def _assert_matches_reference(spec: RunSpec, trial: int) -> None:
    expected, expected_error = _result_or_error(lambda: reference_trial(spec, trial))
    got, error = _result_or_error(lambda: traced_trial(spec, trial))
    assert error == expected_error
    if expected is None:
        return
    (record, trace), (outcome, got_trace) = expected, got
    assert vars(outcome.record) == vars(record)
    assert got_trace.initial == trace.initial
    assert [s.moves for s in got_trace.steps] == [s.moves for s in trace.steps]
    assert [s.draws for s in got_trace.steps] == [s.draws for s in trace.steps]
    assert [s.config for s in got_trace.steps] == [s.config for s in trace.steps]
    assert got_trace.round_ends == trace.round_ends
    assert outcome.final == trace.final


@settings(max_examples=200, deadline=None)
@given(case=trial_specs())
def test_incremental_engine_matches_whole_graph_reference(case):
    _assert_matches_reference(*case)


@pytest.mark.parametrize("daemon", ["synchronous", "aged_fair", "random_subset",
                                    "singleton", "conflict_greedy"])
@pytest.mark.parametrize("algorithm", ["anonymous", "byzantine"])
def test_long_runs_match_whole_graph_reference(algorithm, daemon):
    # many rounds: larger graphs, and Byzantine runs held for 15 rounds past
    # legitimacy while the faulty nodes keep acting. On the sparse graphs
    # most flips move a neighbor's up count across zero; on the dense ones
    # most do not, so their neighbors' guards are not re-evaluated
    def faulty(a, b):
        if algorithm != "byzantine":
            return {}
        return {"byzantine": (a, b),
                "strategies": ((a, "uniform_random", 40), (b, "oscillate", None))}

    for spec in (
        RunSpec(algorithm=algorithm, graph="grid", rows=8, cols=10, daemon=daemon,
                fairness=5, master_seed=11, hold_rounds=15, **faulty(0, 45)),
        RunSpec(algorithm=algorithm, graph="erdos_renyi", n=80, p=0.06,
                graph_seed=3, daemon=daemon, init="adversarial_x",
                master_seed=12, hold_rounds=15, **faulty(0, 45)),
        RunSpec(algorithm=algorithm, graph="complete", n=12, daemon=daemon,
                init="all_top", master_seed=13, hold_rounds=15, **faulty(0, 6)),
        RunSpec(algorithm=algorithm, graph="erdos_renyi", n=60, p=0.5,
                graph_seed=3, daemon=daemon, master_seed=14, hold_rounds=15,
                **faulty(0, 45)),
    ):
        _assert_matches_reference(spec, 0)
        _assert_tracker_matches_whole_graph(spec, 0)


@pytest.mark.parametrize("spec", [
    RunSpec(algorithm="byzantine", graph="grid", rows=6, cols=6,
            daemon="aged_fair", fairness=6, byzantine=(0, 20),
            strategies=((0, "oscillate", None), (20, "degree_liar", None)),
            master_seed=5, trials=3, hold_rounds=2),
    RunSpec(algorithm="anonymous", graph="erdos_renyi", n=40, p=0.1,
            graph_seed=2, daemon="aged_fair", fairness=8, master_seed=6,
            trials=3),
], ids=["byzantine", "anonymous"])
def test_stepper_stamps_read_as_plain_ages(spec):
    """After every transition of seeded aged_fair trials, the stepper's
    "activable since" stamps give each activable node the age the
    reference keeps per node, and `oldest_age` the largest of those."""
    transition = Activity.transition
    plain: dict = {}
    oldest = []

    def checking(self, nodes, rng):
        ages = plain.setdefault(self, AgeList([0] * self.g.n))
        before = set(self.activable)
        out = transition(self, nodes, rng)
        ages.advance(before, set(nodes), self.activable)
        assert {u: self.transitions - self.since[u] for u in self.activable} \
            == {u: ages[u] for u in self.activable}
        assert self.oldest_age() == ages.oldest()
        oldest.append(ages.oldest())
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Activity, "transition", checking)
        for trial in range(spec.trials):
            run_trial(spec, trial)
    assert len(plain) == spec.trials
    # some node waited, so the stamps were read at nonzero ages
    assert max(oldest) > 0


def _plant_unfair_aged_fair(monkeypatch) -> list:
    """aged_fair without its overdue clause: any node may be passed over
    for any number of transitions, while the daemon still declares its
    bound F. Returns the list of its selections, one per transition."""
    selections = []

    def select(self, g, cfg, activable, rng):
        nodes = sorted(activable)
        chosen = ([u for u in nodes if rng.random() < 0.5]
                  or [rng.choice(nodes)])
        selections.append(chosen)
        return chosen

    monkeypatch.setattr(AgedFairDaemon, "select", select)
    return selections


@pytest.mark.parametrize("fairness", range(1, 7))
@pytest.mark.parametrize("graph", [
    {"graph": "ring", "n": 5}, {"graph": "ring", "n": 12},
    {"graph": "grid", "rows": 3, "cols": 4},
], ids=["ring5", "ring12", "grid3x4"])
def test_skipped_fairness_scans_raise_the_reference_violation(
        monkeypatch, graph, fairness):
    """`run_trial` scans the ages only where one can have reached F. Under
    an unfair daemon it must still raise the violation the reference,
    which reads every age after every transition, raises: the same text,
    after the same transition."""
    selections = _plant_unfair_aged_fair(monkeypatch)
    # two faulty nodes stay activable, so the run lasts until one of them
    # is passed over F times in a row
    spec = RunSpec(algorithm="byzantine", **graph, daemon="aged_fair",
                   fairness=fairness, byzantine=(0, 4),
                   strategies=((0, "oscillate", None), (4, "degree_liar", None)),
                   master_seed=fairness, hold_rounds=300)
    raised = []
    for run in (reference_trial, run_trial):
        selections.clear()
        with pytest.raises(InvariantViolation) as exc:
            run(spec, 0)
        raised.append((str(exc.value), len(selections)))
    assert raised[1] == raised[0]
    assert raised[1][0] == (f"fairness bound {fairness} violated: a node "
                            f"waited {fairness} transitions while activable")


def test_fairness_ages_are_scanned_only_where_one_can_reach_the_bound(
        monkeypatch):
    """The first scan follows transition F, when every age started at 0,
    and a scan that reads worst age w at transition t is followed by the
    next one at t + F - w: with F = n no scan is made in a trial shorter
    than n transitions, and with F = 1 one follows every transition."""
    scans = []
    oldest_age = Activity.oldest_age

    def counting(self):
        worst = oldest_age(self)
        scans.append((self.transitions, worst))
        return worst

    monkeypatch.setattr(Activity, "oldest_age", counting)
    faulty = {"byzantine": (0, 20),
              "strategies": ((0, "oscillate", None), (20, "degree_liar", None))}
    grid = {"algorithm": "byzantine", "graph": "grid", "rows": 8, "cols": 8,
            "check_invariants": True, **faulty}

    # aged_fair's F defaults to n = 64
    for trial in range(4):
        record = run_trial(RunSpec(**grid, daemon="aged_fair", master_seed=3),
                           trial).record
        assert 0 < record.transitions < 64
    assert scans == []

    record = run_trial(RunSpec(**grid, daemon="synchronous", master_seed=3,
                               hold_rounds=3), 0).record
    assert [t for t, _ in scans] == list(range(1, record.transitions + 1))

    for fairness in (2, 3, 5):
        scans.clear()
        spec = RunSpec(**grid, daemon="aged_fair", fairness=fairness,
                       master_seed=fairness, hold_rounds=10)
        record = run_trial(spec, 0).record
        assert scans[0][0] == fairness
        assert [t for t, _ in scans[1:]] == [t + fairness - w
                                            for t, w in scans[:-1]]
        last, worst = scans[-1]
        assert last <= record.transitions < last + fairness - worst
        # some scan read a nonzero age, so the gaps were not all F
        assert max(w for _, w in scans) > 0


def _assert_tracker_matches_whole_graph(spec: RunSpec, trial: int) -> None:
    """After every transition of the trial, the run's SafeAloneTracker,
    updated from `Activity.touched`, holds the whole-graph safe alone set
    and agrees with `is_legitimate`."""
    g, byz = build_graph(spec), frozenset(spec.byzantine)
    update = SafeAloneTracker.update
    checked = 0

    def checking(self, state, touched):
        nonlocal checked
        lost = update(self, state, touched)
        cfg = state.snapshot()
        assert self.alone == safe_alone_set(g, byz, cfg)
        assert self.legitimate == is_legitimate(g, byz, cfg)
        checked += 1
        return lost

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SafeAloneTracker, "update", checking)
        record = run_trial(spec, trial).record
    assert checked == record.transitions > 0


def _guard_evaluations_per_move(spec: RunSpec) -> float:
    """Guard evaluations per move of an anonymous trial, after its initial
    scan of every guard."""
    calls = 0
    original = AnonymousMIS.enabled_rules

    def counting(self, s, x, deg, up, u):
        nonlocal calls
        calls += 1
        return original(self, s, x, deg, up, u)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AnonymousMIS, "enabled_rules", counting)
        record = run_trial(spec, 0).record
    assert record.converged
    return (calls - build_graph(spec).n) / sum(record.moves_by_rule.values())


def test_guard_evaluations_per_move_do_not_grow_with_n():
    """After the initial full scan, a move costs at most N[mover] guard
    evaluations, 3 on a ring, however many nodes it has: a move whose s
    flips re-evaluates the mover and the neighbors whose up count crossed
    zero, and a failed try-withdrawal none. Validating a move reads the
    activable map and evaluates no guard."""
    for n in (256, 2048):
        spec = RunSpec(algorithm="anonymous", graph="ring", n=n,
                       daemon="singleton", check_invariants=False, master_seed=5)
        assert _guard_evaluations_per_move(spec) <= 3, n


def test_guard_evaluations_skip_neighbors_whose_up_stays_nonzero():
    """On G(300, 0.05), where a flip rarely moves a neighbor's up count
    across zero, a synchronous anonymous trial evaluates at most 1.5 guards
    per move after the initial scan (0.78 at this seed); re-evaluating
    N[mover] for every flip costs about 4."""
    spec = RunSpec(algorithm="anonymous", graph="erdos_renyi", n=300, p=0.05,
                   daemon="synchronous", master_seed=0)
    assert _guard_evaluations_per_move(spec) <= 1.5


_PATH3 = generate_graph("path", n=3)


@pytest.mark.parametrize("algorithm, s, x, strategies, moves, draws, touched", [
    pytest.param("anonymous", (True, True, False), None, {},
                 [(0, TRY_WITHDRAW)], [0], set(), id="failed-try-withdrawal"),
    pytest.param("byzantine", (False,) * 3, (1, 2, 1), {},
                 [(1, TRY_CANDIDACY)], [0], set(), id="failed-try-candidacy"),
    pytest.param("byzantine", (False,) * 3, (1, 2, 1), {0: "silent"},
                 [(0, BYZ)], [], set(), id="silent"),
    pytest.param("byzantine", (False,) * 3, (1, 2, 1), {0: "degree_liar"},
                 [(0, BYZ)], [], {0}, id="degree-liar-rewrites-x"),
    pytest.param("byzantine", (False,) * 3, (1, 0, 1), {},
                 [(1, REFRESH)], [], {1}, id="refresh"),
    pytest.param("anonymous", (False,) * 3, None, {},
                 [(1, CANDIDACY)], [], {0, 1, 2}, id="candidacy-flips-s"),
    pytest.param("byzantine", (True, True, False), (1, 2, 1), {},
                 [(1, WITHDRAW)], [], {0, 1, 2}, id="withdrawal-flips-s"),
    # up[1] moves 2 -> 1 or 1 -> 2: "some neighbor is up" holds throughout
    pytest.param("byzantine", (True, False, True), (1, 2, 1), {0: "oscillate"},
                 [(0, BYZ)], [], {0}, id="fall-leaves-neighbor-up"),
    pytest.param("anonymous", (False, False, True), None, {},
                 [(0, CANDIDACY)], [], {0}, id="candidacy-next-to-up"),
    pytest.param("byzantine", (False, False, True), (1, 2, 1), {},
                 [(0, TRY_CANDIDACY)], [1], {0}, id="try-candidacy-next-to-up"),
    # two flips at node 1's neighbors: up[1] goes 1 -> 0 -> 1, crossing zero
    # twice, or 1 -> 2 -> 1, crossing none
    pytest.param("byzantine", (True, True, False), (1, 2, 1),
                 {0: "oscillate", 2: "oscillate"}, [(0, BYZ), (2, BYZ)],
                 [], {0, 1, 2}, id="up-falls-to-zero-and-rises-back"),
    pytest.param("byzantine", (False, True, True), (1, 2, 1),
                 {0: "oscillate", 2: "oscillate"}, [(0, BYZ), (2, BYZ)],
                 [], {0, 2}, id="up-rises-and-falls-back"),
])
def test_a_transition_evaluates_guards_only_where_state_changed(
        monkeypatch, algorithm, s, x, strategies, moves, draws, touched):
    """One scripted transition on the path 0-1-2: the guards evaluated after
    it are those of the honest nodes whose s, x or up > 0 it changed, and
    `Activity.touched` names the nodes whose s, x or up > 0 changed."""
    algo = get_algorithm(algorithm)
    activity = Activity(algo, _PATH3, Configuration(s, x), {
        u: make_strategy(kind) for u, kind in strategies.items()})
    calls = []
    original = type(algo).enabled_rules

    def counting(self, s, x, deg, up, u):
        calls.append(u)
        return original(self, s, x, deg, up, u)

    monkeypatch.setattr(type(algo), "enabled_rules", counting)
    nodes = [u for u, _ in moves]
    rules, _, _ = activity.transition(nodes, forced_draws(draws))
    assert list(zip(nodes, rules)) == moves
    assert activity.touched == touched
    assert sorted(calls) == sorted(touched - set(strategies))
    _assert_counted_state(activity, algo, _PATH3, frozenset(strategies))


@settings(max_examples=150, deadline=None)
@given(case=trial_specs())
def test_safe_alone_tracker_matches_whole_graph_predicates(case):
    spec, trial = case
    outcome, trace = traced_trial(replace(spec, check_invariants=False), trial)
    g, byz = outcome.graph, frozenset(spec.byzantine)
    cfg = trace.initial
    tracker = SafeAloneTracker(g, counted_state(g, cfg), safe_zone(g, byz, 1),
                               safe_zone(g, byz, 2))
    expected = safe_alone_set(g, byz, cfg)
    assert tracker.alone == expected
    assert tracker.legitimate == is_legitimate(g, byz, cfg)
    for step in trace.steps:
        lost = tracker.update(counted_state(g, step.config),
                              closed_neighbourhood(g, [m.node for m in step.moves]))
        cfg, previous = step.config, expected
        expected = safe_alone_set(g, byz, cfg)
        assert lost == sorted(previous - expected)
        assert tracker.alone == expected
        if not byz:
            assert tracker.alone == locally_alone_set(g, cfg)
        assert tracker.legitimate == is_legitimate(g, byz, cfg)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_safe_alone_tracker_follows_arbitrary_flips(data):
    """Any sequence of configurations, not only executions: alone nodes may
    be lost and coverage may drop, and the tracker still agrees with the
    whole-graph predicates."""
    n = data.draw(st.integers(1, 14))
    g = generate_graph("erdos_renyi", seed=data.draw(st.integers(0, 1000)), n=n,
                       p=data.draw(st.sampled_from([0.15, 0.3, 0.6])))
    byz = frozenset(data.draw(st.lists(st.integers(0, n - 1), unique=True,
                                       max_size=2)))
    cfg = Configuration(tuple(data.draw(st.lists(st.booleans(), min_size=n,
                                                 max_size=n))))
    tracker = SafeAloneTracker(g, counted_state(g, cfg), safe_zone(g, byz, 1),
                               safe_zone(g, byz, 2))
    expected = safe_alone_set(g, byz, cfg)
    assert tracker.alone == expected
    assert tracker.legitimate == is_legitimate(g, byz, cfg)
    flip_sets = st.lists(st.integers(0, n - 1), unique=True, min_size=1)
    for flips in data.draw(st.lists(flip_sets, max_size=12)):
        cfg = Configuration(tuple(
            not up if u in flips else up for u, up in enumerate(cfg.s)))
        lost = tracker.update(counted_state(g, cfg), closed_neighbourhood(g, flips))
        previous, expected = expected, safe_alone_set(g, byz, cfg)
        assert lost == sorted(previous - expected)
        assert tracker.alone == expected
        assert tracker.legitimate == is_legitimate(g, byz, cfg)


def _plant_eager_candidacy(monkeypatch):
    """A guard bug: candidacy is enabled on every down node whose x is right,
    even next to a settled node, so settled nodes can lose their status."""
    anonymous, byzantine = AnonymousMIS.enabled_rules, ByzantineMIS.enabled_rules

    def anonymous_eager(self, s, x, deg, up, u):
        return CANDIDACY if not s[u] else anonymous(self, s, x, deg, up, u)

    def byzantine_eager(self, s, x, deg, up, u):
        if not s[u] and x[u] == deg[u]:
            return TRY_CANDIDACY
        return byzantine(self, s, x, deg, up, u)

    monkeypatch.setattr(AnonymousMIS, "enabled_rules", anonymous_eager)
    monkeypatch.setattr(ByzantineMIS, "enabled_rules", byzantine_eager)


@pytest.mark.parametrize("algorithm, faulty, shrunk", [
    ("anonymous", (), "settled set"),
    ("byzantine", (), "settled set"),
    ("byzantine", (0, 27), "safe alone set"),
])
def test_planted_shrink_raises_the_reference_message(monkeypatch, algorithm,
                                                     faulty, shrunk):
    _plant_eager_candidacy(monkeypatch)
    spec = RunSpec(algorithm=algorithm, graph="grid", rows=6, cols=8,
                   daemon="random_subset", init="all_bot", master_seed=4,
                   byzantine=faulty, hold_rounds=50)
    _, expected_error = _result_or_error(lambda: reference_trial(spec, 0))
    _, error = _result_or_error(lambda: run_trial(spec, 0))
    assert error == expected_error
    assert error.startswith(f"InvariantViolation: {shrunk} shrank: lost [")


def test_planted_stale_degree_raises_the_reference_message(monkeypatch):
    # node 5 is never activable, so its wrong x outlives the first round
    # although it never moves: only a scan of every node finds it
    original = ByzantineMIS.enabled_rules
    monkeypatch.setattr(
        ByzantineMIS, "enabled_rules",
        lambda self, s, x, deg, up, u: (
            None if u == 5 else original(self, s, x, deg, up, u)))
    spec = RunSpec(algorithm="byzantine", graph="grid", rows=4, cols=5,
                   daemon="aged_fair", init="adversarial_x", master_seed=2,
                   byzantine=(0,), hold_rounds=50)
    _, expected_error = _result_or_error(lambda: reference_trial(spec, 0))
    _, error = _result_or_error(lambda: run_trial(spec, 0))
    assert error == expected_error
    assert error == "InvariantViolation: node 5 has x=20 != deg=3 after the first round"


@pytest.mark.parametrize("side", [16, 64])
@pytest.mark.parametrize("algorithm", ["anonymous", "byzantine"])
def test_zones_and_alone_sets_are_computed_once_per_trial(monkeypatch,
                                                          algorithm, side):
    """The invariant and legitimacy checks cost O(|N2[movers]|) per
    transition: no whole-graph scan runs per transition, at any size."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (harness, analysis):
        for name in ("safe_zone", "locally_alone_set"):
            monkeypatch.setattr(module, name,
                                counting(name, getattr(module, name)))
    faulty = ({"byzantine": (0, side * side // 2 + side // 2)}
              if algorithm == "byzantine" else {})
    spec = RunSpec(algorithm=algorithm, graph="grid", rows=side, cols=side,
                   daemon="singleton", check_invariants=True, master_seed=3,
                   move_ceiling=300, **faulty)
    record = run_trial(spec, 0).record
    assert record.transitions >= 100
    # two zones at the start and one safe alone set at the end
    assert calls["safe_zone"] <= 3, calls
    assert calls["locally_alone_set"] <= 1, calls


def test_safe_zones_are_computed_once_per_spec(monkeypatch):
    """Every trial of a spec shares its graph, so the two zones are computed
    for the first trial only; the safe alone set's size comes from the
    tracker, with no whole-graph scan at the end of a trial."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(harness, "safe_zone",
                        counting("safe_zone", harness.safe_zone))
    monkeypatch.setattr(analysis, "locally_alone_set",
                        counting("locally_alone_set", analysis.locally_alone_set))
    spec = RunSpec(algorithm="byzantine", graph="grid", rows=6, cols=6,
                   daemon="aged_fair", byzantine=(0, 20), master_seed=5,
                   trials=12)
    outcomes = list(harness.run_trials(spec))
    assert len(outcomes) == 12
    assert calls["safe_zone"] <= 2, calls
    assert calls["locally_alone_set"] == 0, calls
    for outcome in outcomes:
        assert outcome.record.set_size == len(
            safe_alone_set(outcome.graph, frozenset(spec.byzantine), outcome.final))


def _scripted_from_synchronous(spec: RunSpec, trial: int, directory: str) -> RunSpec:
    """spec under a scripted daemon that replays the moves a synchronous
    daemon makes in the same trial. A synchronous selection draws nothing,
    so the scripted trial repeats that execution."""
    _, source = traced_trial(replace(spec, daemon="synchronous"), trial)
    path = os.path.join(directory, "script.txt")
    with open(path, "w", encoding="utf-8") as fh:
        for step in source.steps:
            fh.write(",".join(f"{m.node}:{m.rule}" for m in step.moves) + "\n")
    return replace(spec, daemon="scripted", script_file=path)


def _assert_counted_state(activity, algo, g, byz) -> None:
    cfg = activity.snapshot()
    recount = counted_state(g, cfg)
    assert activity.deg == recount.deg
    assert activity.up == recount.up
    expected = {}
    for u in range(g.n):
        if u in byz:
            expected[u] = BYZ
            continue
        rule = algo.enabled_rules(activity.s, activity.x, activity.deg,
                                  activity.up, u)
        assert paper_rules(algo, g, cfg, u) == (
            () if rule is None else (rule,)), (u, cfg)
        if rule is not None:
            expected[u] = rule
    assert activity.activable == expected


@settings(max_examples=150, deadline=None)
@given(case=trial_specs(), scripted=st.booleans())
def test_counted_state_matches_paper_guards_after_every_transition(case, scripted):
    """Both algorithms, every strategy, preset and daemon kind: after every
    transition, up[u] equals a recount of u's up neighbors and the counted
    guards equal the paper-form guards on every node."""
    spec, trial = case
    g, algo = build_graph(spec), get_algorithm(spec.algorithm)
    byz = frozenset(spec.byzantine)
    transition = Activity.transition
    checked = 0

    def checking(self, nodes, rng):
        nonlocal checked
        if checked == 0:
            _assert_counted_state(self, algo, g, byz)
        result = transition(self, nodes, rng)
        _assert_counted_state(self, algo, g, byz)
        checked += 1
        return result

    with tempfile.TemporaryDirectory() as directory, \
            pytest.MonkeyPatch.context() as patch:
        if scripted:
            spec = _scripted_from_synchronous(spec, trial, directory)
        patch.setattr(Activity, "transition", checking)
        record = run_trial(spec, trial).record
    assert checked == record.transitions


@pytest.mark.parametrize("n", [256, 4096])
@pytest.mark.parametrize("algorithm", ["anonymous", "byzantine"])
def test_trial_builds_a_constant_number_of_configurations(monkeypatch,
                                                          algorithm, n):
    """Without a trace or a ledger, a trial builds its initial and final
    configurations only, however many nodes and moves it has."""
    built = 0
    init = Configuration.__init__

    def counting(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Configuration, "__init__", counting)
    spec = RunSpec(algorithm=algorithm, graph="ring", n=n, daemon="singleton",
                   init="all_top", master_seed=5)
    record = run_trial(spec, 0).record
    assert record.converged
    assert sum(record.moves_by_rule.values()) >= n
    assert built <= 2, built


def _ledger_csv(ledger) -> bytes:
    buf = io.StringIO()
    write_ledger_csv([ledger], buf)
    return buf.getvalue().encode()


def _assert_ledgers_match_reference(spec: RunSpec, trial: int) -> None:
    """The ledger a run keeps, and the one a replay of its trace builds,
    equal the whole-configuration ledger over that trace."""
    outcome, trace = traced_trial(replace(spec, instrument=True), trial)
    g, algo = outcome.graph, get_algorithm(spec.algorithm)
    expected = whole_configuration_ledger(g, algo, trace)
    replayed, _ = scripted_ledger(algo, g, trace.initial, trace.entries())
    for ledger in (outcome.ledger, replayed):
        assert ledger.fresh_sets == expected.fresh_sets
        assert ledger.move_colors == expected.move_colors
        assert list(ledger.records) == list(expected.records)
        for color, record in expected.records.items():
            assert vars(ledger.records[color]) == vars(record), color
        assert ledger.all_dead() == expected.all_dead()
        assert _ledger_csv(ledger) == _ledger_csv(expected)


@settings(max_examples=150, deadline=None)
@given(case=trial_specs(algorithms=("anonymous",)), scripted=st.booleans())
def test_ledger_matches_whole_configuration_reference(case, scripted):
    spec, trial = case
    with tempfile.TemporaryDirectory() as directory:
        if scripted:
            spec = _scripted_from_synchronous(spec, trial, directory)
        _assert_ledgers_match_reference(spec, trial)


LEDGER_GRAPHS = (
    {"graph": "ring", "n": 24},
    {"graph": "grid", "rows": 5, "cols": 6},
    {"graph": "erdos_renyi", "n": 30, "p": 0.2, "graph_seed": 4},
    {"graph": "random_tree", "n": 25, "graph_seed": 2},
    {"graph": "star", "leaves": 12},
)


@pytest.mark.parametrize("daemon", DAEMON_KINDS)
def test_ledger_matches_reference_on_every_graph_and_preset(daemon):
    """Every daemon kind, init preset and graph kind, three trials each."""
    with tempfile.TemporaryDirectory() as directory:
        for params in LEDGER_GRAPHS:
            for init in INITIAL_PRESETS:
                spec = RunSpec(algorithm="anonymous", daemon=daemon, init=init,
                               master_seed=9, **params)
                for trial in range(3):
                    run = (_scripted_from_synchronous(spec, trial, directory)
                           if daemon == "scripted" else spec)
                    _assert_ledgers_match_reference(run, trial)


def _plant_candidacy_next_to_up(monkeypatch):
    """A guard bug: candidacy is enabled on every down node, even next to an
    up neighbor, so a fresh-up set need not be a candidate set."""
    original = AnonymousMIS.enabled_rules
    monkeypatch.setattr(
        AnonymousMIS, "enabled_rules",
        lambda self, s, x, deg, up, u: (
            CANDIDACY if not s[u] else original(self, s, x, deg, up, u)))


def _plant_unchecked_candidacy_next_to_up(monkeypatch):
    """The guard bug above with the candidate-set check switched off in both
    ledgers: a node up since a color died gains an up neighbor, and so a
    possible withdrawal with that dead color."""
    _plant_candidacy_next_to_up(monkeypatch)
    for module in (analysis, reference):
        monkeypatch.setattr(module, "is_candidate_set", lambda g, cfg, nodes: True)


def _plant_rising_withdrawal(monkeypatch):
    """A command bug: a try-withdrawal raises s. The withdrawal is offered to
    down nodes next to an up neighbor too, where it would bring up a node
    that made no candidacy; the ledger rejects the offer itself, a possible
    withdrawal on a node that has no color. The engine's `step` and the
    paper-form command carry the same bug."""
    guard, step = AnonymousMIS.enabled_rules, AnonymousMIS.step
    apply = PaperAnonymousCommands.apply

    def offering(self, s, x, deg, up, u):
        if not s[u] and up[u]:
            return TRY_WITHDRAW
        return guard(self, s, x, deg, up, u)

    def rising_step(self, g, state, nodes, activable, strategies, rng):
        stepped = step(self, g, state, nodes, activable, strategies, rng)
        rules, _, new_s, _ = stepped
        new_s[:] = [True if rule is TRY_WITHDRAW and not state.s[u] else v
                    for u, rule, v in zip(nodes, rules, new_s)]
        return stepped

    def rising_apply(self, g, cfg, u, rule, draw):
        if rule is TRY_WITHDRAW and not cfg.s[u]:
            return True, None
        return apply(self, g, cfg, u, rule, draw)

    monkeypatch.setattr(AnonymousMIS, "enabled_rules", offering)
    monkeypatch.setattr(AnonymousMIS, "step", rising_step)
    monkeypatch.setattr(PaperAnonymousCommands, "apply", rising_apply)


def _plant_stuck_candidacy(monkeypatch):
    """A command bug: a candidacy leaves s down, so the fresh-up set misses
    a candidacy mover; in the engine's `step` and the paper-form command
    alike."""
    step, apply = AnonymousMIS.step, PaperAnonymousCommands.apply

    def stuck_step(self, g, state, nodes, activable, strategies, rng):
        stepped = step(self, g, state, nodes, activable, strategies, rng)
        rules, _, new_s, _ = stepped
        new_s[:] = [False if rule is CANDIDACY else v
                    for rule, v in zip(rules, new_s)]
        return stepped

    monkeypatch.setattr(AnonymousMIS, "step", stuck_step)
    monkeypatch.setattr(
        PaperAnonymousCommands, "apply",
        lambda self, g, cfg, u, rule, draw: (
            (False, None) if rule is CANDIDACY
            else apply(self, g, cfg, u, rule, draw)))


def _violation(fn) -> str | None:
    try:
        fn()
    except InvariantViolation as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("daemon", ["synchronous", "random_subset", "singleton"])
@pytest.mark.parametrize("plant, message", [
    (_plant_candidacy_next_to_up, "is not a candidate set"),
    (_plant_unchecked_candidacy_next_to_up, "can still move with it"),
    (_plant_rising_withdrawal, "has no color record for None"),
    (_plant_stuck_candidacy, "does not match candidacy movers"),
])
def test_planted_ledger_bug_raises_the_reference_message(monkeypatch, plant,
                                                         message, daemon):
    plant(monkeypatch)
    spec = RunSpec(algorithm="anonymous", graph="grid", rows=6, cols=8,
                   daemon=daemon, master_seed=3, move_ceiling=2000,
                   check_invariants=False)
    outcome, trace = traced_trial(spec, 0)
    g, algo = outcome.graph, get_algorithm("anonymous")
    expected = _violation(lambda: whole_configuration_ledger(g, algo, trace))
    assert expected is not None and message in expected
    assert _violation(lambda: scripted_ledger(
        algo, g, trace.initial, trace.entries())) == expected
    assert _violation(
        lambda: run_trial(replace(spec, instrument=True), 0)) == expected


@pytest.mark.parametrize("n", [256, 4096])
def test_instrumented_trial_scans_no_whole_configuration_per_transition(
        monkeypatch, n):
    """The color ledger reads the stepper's state: an instrumented trial
    builds its initial and final configurations only, and computes the
    settled set once, for its set_size."""
    built = 0
    init = Configuration.__init__

    def counting(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    scans = 0
    whole_graph = analysis.locally_alone_set

    def counting_scans(*args):
        nonlocal scans
        scans += 1
        return whole_graph(*args)

    monkeypatch.setattr(Configuration, "__init__", counting)
    for module in (harness, analysis):
        monkeypatch.setattr(module, "locally_alone_set", counting_scans)
    spec = RunSpec(algorithm="anonymous", graph="ring", n=n, daemon="singleton",
                   master_seed=5, instrument=True)
    outcome = run_trial(spec, 0)
    assert outcome.record.converged
    assert outcome.record.transitions >= n // 4
    assert len(outcome.ledger.records) > 1 and outcome.ledger.all_dead()
    assert built <= 2, built
    assert scans <= 1, scans
