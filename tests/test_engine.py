import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mislab.algorithms import get_algorithm
from mislab.byzantine import make_strategy
from mislab.engine import (
    Activity,
    Configuration,
    FixedDraws,
    Move,
    RngStream,
    RoundTracker,
    Rule,
    activable_map,
    derive_seed,
    dump_trace,
    initial_configuration,
    is_stable,
    run_script,
)
from mislab.errors import ConfigError, EngineError, ScriptError
from mislab.graphs import erdos_renyi, make_graph, path, ring
from mislab.harness import RunSpec, run_trial
from reference import apply_transition, enabled

ANON = get_algorithm("anonymous")
BYZ = get_algorithm("byzantine")

# the four-node worked example: a-b, a-c, b-c, c-d as 0..3
EXAMPLE = make_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def all_bot(n):
    return Configuration((False,) * n)


def test_candidacy_enabled_everywhere_when_all_down():
    cfg = all_bot(4)
    for u in range(4):
        assert enabled(ANON, EXAMPLE, cfg, u) == (Rule.CANDIDACY,)


def test_final_example_config_has_no_enabled_rules():
    cfg = Configuration((False, True, False, True))
    for u in range(4):
        assert enabled(ANON, EXAMPLE, cfg, u) == ()


def test_refresh_enabled_on_wrong_degree():
    g = path(3)
    cfg = Configuration((False,) * 3, (0, 5, 1))
    assert Rule.REFRESH in enabled(BYZ, g, cfg, 1)
    assert enabled(BYZ, g, cfg, 2) == (Rule.TRY_CANDIDACY,)


def test_all_candidacy_transition_reaches_all_top():
    cfg = all_bot(4)
    moves = [Move(u, Rule.CANDIDACY) for u in range(4)]
    after, draws = apply_transition(ANON, EXAMPLE, cfg, moves, RngStream(1))
    assert after.s == (True, True, True, True)
    assert draws == (None, None, None, None)


def test_refresh_changes_only_its_node():
    g = path(3)
    cfg = Configuration((True, False, True), (9, 9, 9))
    after, _ = apply_transition(BYZ, g, cfg, [Move(1, Rule.REFRESH)], RngStream(1))
    assert after.x == (9, 2, 9)
    assert after.s == cfg.s


def test_failed_withdrawal_coin_keeps_state():
    cfg = Configuration((True, True, True, True))
    after, draws = apply_transition(
        ANON, EXAMPLE, cfg, [Move(0, Rule.TRY_WITHDRAW)], FixedDraws([0]))
    assert after == cfg
    assert draws == (0,)


def test_is_stable_on_example_configs():
    assert is_stable(ANON, EXAMPLE, Configuration((False, True, False, True)))
    assert not is_stable(ANON, EXAMPLE, all_bot(4))
    single = make_graph(1, [])
    assert is_stable(ANON, single, Configuration((True,)))


def test_is_stable_rejects_byzantine_sets():
    with pytest.raises(ConfigError):
        is_stable(ANON, EXAMPLE, all_bot(4), byz=frozenset({0}))


def test_move_set_validation():
    cfg = all_bot(4)
    rng = RngStream(0)
    with pytest.raises(EngineError):
        apply_transition(ANON, EXAMPLE, cfg, [], rng)
    with pytest.raises(EngineError):
        apply_transition(ANON, EXAMPLE, cfg,
                         [Move(0, Rule.CANDIDACY), Move(0, Rule.TRY_WITHDRAW)], rng)
    with pytest.raises(EngineError):
        apply_transition(ANON, EXAMPLE, cfg, [Move(0, Rule.TRY_WITHDRAW)], rng)
    with pytest.raises(EngineError):
        apply_transition(ANON, EXAMPLE, cfg, [Move(0, Rule.BYZ)], rng)


def test_unsorted_move_set_is_rejected():
    # the stepper takes a daemon's node-ascending list as it is
    moves = [Move(1, Rule.CANDIDACY), Move(0, Rule.CANDIDACY)]
    activity = Activity(ANON, EXAMPLE, all_bot(4))
    with pytest.raises(EngineError, match="^move set is not sorted by node$"):
        activity.transition(moves, RngStream(0))
    assert activity.snapshot() == all_bot(4)
    assert activity.ages.transitions == 0


def test_byz_move_requires_strategy_binding():
    g = path(2)
    cfg = Configuration((False, False), (1, 1))
    strategies = {1: make_strategy("always_top")}
    after, _ = apply_transition(
        BYZ, g, cfg, [Move(1, Rule.BYZ)], RngStream(3), strategies)
    assert after.s == (False, True)
    with pytest.raises(EngineError):
        apply_transition(BYZ, g, cfg, [Move(1, Rule.TRY_CANDIDACY)],
                         RngStream(3), strategies)


def test_synchronous_rounds_are_single_transitions():
    # under activate-everything scheduling each transition closes a round
    spec = RunSpec(algorithm="anonymous", graph="ring", n=8, init="random",
                   daemon="synchronous", master_seed=5)
    outcome = run_trial(spec, 0, want_trace=True)
    assert outcome.record.converged
    assert outcome.trace.round_ends == list(
        range(1, len(outcome.trace.steps) + 1))


def test_round_tracker_disabling_action_counts():
    # nodes 0 and 1 activable when the round opens
    tracker = RoundTracker({0, 1})
    # node 1 activable before, unmoved, disabled after: round ends
    assert tracker.advance(moved={0}, left={0, 1}, activable_after=set())
    assert tracker.rounds_completed == 1


def test_round_waits_for_byzantine_activation():
    # hand-traced: an edge 0-1 with node 1 Byzantine; activating node 0 alone
    # cannot close the round because node 1 stays activable and unactivated
    # (a faulty node never leaves the activable set)
    tracker = RoundTracker({0, 1})
    assert not tracker.advance(moved={0}, left={0}, activable_after={1})
    assert tracker.rounds_elapsed == 1  # partial round in progress
    assert tracker.advance(moved={1}, left=set(), activable_after={1})
    assert tracker.rounds_completed == 1


def test_round_tracker_never_activable_node_is_satisfied():
    # node 1 is not activable in any configuration of the round
    tracker = RoundTracker({0})
    assert tracker.advance(moved={0}, left=set(), activable_after={0})


def test_round_boundaries_decompose_the_trace():
    spec = RunSpec(algorithm="byzantine", graph="grid", rows=3, cols=3,
                   init="random", daemon="aged_fair", fairness=4,
                   master_seed=21, byzantine=(4,),
                   strategies=((4, "uniform_random", None),))
    trace = run_trial(spec, 1, want_trace=True).trace
    ends = trace.round_ends
    # nonempty contiguous segments covering a prefix of the transitions
    assert ends == sorted(set(ends))
    assert all(e >= 1 for e in ends)
    if ends:
        assert ends[-1] <= len(trace.steps)


def test_replay_determinism():
    spec = RunSpec(algorithm="byzantine", graph="erdos_renyi", n=10, p=0.35,
                   graph_seed=2, init="random", daemon="aged_fair",
                   master_seed=77, byzantine=(0,),
                   strategies=((0, "uniform_random", None),))
    a = run_trial(spec, 4, want_trace=True)
    b = run_trial(spec, 4, want_trace=True)
    assert a.trace.initial == b.trace.initial
    assert [s.config for s in a.trace.steps] == [s.config for s in b.trace.steps]
    assert [s.moves for s in a.trace.steps] == [s.moves for s in b.trace.steps]
    assert [s.draws for s in a.trace.steps] == [s.draws for s in b.trace.steps]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), data=st.data())
def test_transition_locality(seed, data):
    g = erdos_renyi(8, 0.4, seed=seed)
    s = tuple(data.draw(st.booleans()) for _ in range(8))
    x = tuple(data.draw(st.integers(min_value=0, max_value=9)) for _ in range(8))
    cfg = Configuration(s, x)
    act = activable_map(BYZ, g, cfg)
    if not act:
        return
    nodes = data.draw(st.sets(st.sampled_from(sorted(act)), min_size=1))
    moves = [Move(u, act[u][0]) for u in nodes]
    after, _ = apply_transition(BYZ, g, cfg, moves, RngStream(seed))
    for u in range(8):
        if u not in nodes:
            assert after.s[u] == cfg.s[u]
            assert after.x[u] == cfg.x[u]


def test_candidacy_draws_match_their_probability():
    # probability 1/4 from the advertised degrees; empirical frequency over
    # 2000 seeded single-move transitions must sit within 4 sigma
    g = path(3)
    cfg = Configuration((False,) * 3, (3, 2, 3))
    hits = 0
    for seed in range(2000):
        after, _ = apply_transition(
            BYZ, g, cfg, [Move(1, Rule.TRY_CANDIDACY)], RngStream(seed))
        hits += after.s[1]
    p = 0.25
    sigma = (2000 * p * (1 - p)) ** 0.5
    assert abs(hits - 2000 * p) < 4 * sigma


def test_withdrawal_coin_is_fair():
    g = path(2)
    cfg = Configuration((True, True))
    hits = 0
    for seed in range(2000):
        after, _ = apply_transition(
            ANON, g, cfg, [Move(0, Rule.TRY_WITHDRAW)], RngStream(seed))
        hits += not after.s[0]
    sigma = (2000 * 0.25) ** 0.5
    assert abs(hits - 1000) < 4 * sigma


def test_rng_stream_reproducible():
    a = RngStream(123)
    b = RngStream(123)
    assert [a.bernoulli(0.5) for _ in range(32)] == \
        [b.bernoulli(0.5) for _ in range(32)]
    assert a.position == 32


def test_bernoulli_extremes():
    rng = RngStream(5)
    assert all(rng.bernoulli(1.0) == 1 for _ in range(16))
    assert all(rng.bernoulli(0.0) == 0 for _ in range(16))


def test_derive_seed_spreads_trials():
    seeds = {derive_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(42, 7) == derive_seed(42, 7)
    assert derive_seed(42, 7) != derive_seed(43, 7)


def test_initial_presets():
    g = ring(4)
    rng = RngStream(1)
    bot = initial_configuration(g, True, "all_bot", rng)
    assert bot.s == (False,) * 4
    assert bot.x == (2, 2, 2, 2)
    top = initial_configuration(g, False, "all_top", rng)
    assert top.s == (True,) * 4 and top.x is None
    adv = initial_configuration(g, True, "adversarial_x", rng)
    assert adv.x == (4, 4, 4, 4)
    with pytest.raises(ConfigError):
        initial_configuration(g, True, "mystery", rng)


def test_initial_random_is_seed_deterministic():
    g = ring(6)
    a = initial_configuration(g, True, "random", RngStream(9))
    b = initial_configuration(g, True, "random", RngStream(9))
    assert a == b


def test_run_script_rejects_disabled_moves():
    with pytest.raises(ScriptError):
        run_script(ANON, EXAMPLE, all_bot(4),
                   [[(0, Rule.TRY_WITHDRAW, 1)]])


def test_run_script_requires_draws_for_coin_rules():
    cfg = Configuration((True, True, True, True))
    with pytest.raises(ScriptError):
        run_script(ANON, EXAMPLE, cfg, [[(0, Rule.TRY_WITHDRAW, None)]])


def test_dump_trace_format():
    trace = run_script(ANON, EXAMPLE, all_bot(4),
                       [[(u, Rule.CANDIDACY, None) for u in range(4)],
                        [(0, Rule.TRY_WITHDRAW, 1)]])
    buf = io.StringIO()
    dump_trace(trace, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "0 - 0000"
    assert lines[1] == "1 0:candidacy:-,1:candidacy:-,2:candidacy:-,3:candidacy:- 1111"
    assert lines[2] == "2 0:withdrawal?:1 0111"


def test_dump_trace_includes_x_vector():
    g = path(2)
    cfg = Configuration((False, False), (5, 1))
    trace = run_script(BYZ, g, cfg, [[(0, Rule.REFRESH, None)]])
    buf = io.StringIO()
    dump_trace(trace, buf)
    assert buf.getvalue().splitlines() == ["0 - 00 5,1", "1 0:refresh:- 00 1,1"]
