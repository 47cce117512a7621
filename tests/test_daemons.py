import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mislab.algorithms import get_algorithm
from mislab.byzantine import make_strategy
from mislab.daemons import make_daemon
from mislab.engine import (
    Activity,
    Configuration,
    RngStream,
    Rule,
    activable_map,
    initial_configuration,
)
from mislab.errors import ConfigError, EngineError, ScriptError
from mislab.graphs import make_graph, ring
from mislab.harness import RunSpec, run_trial
from reference import activable_flags, daemon_view, fairness_ages, singleton_pick

ANON = get_algorithm("anonymous")
EXAMPLE = make_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def select(daemon, g, cfg, ages=None, seed=0):
    """The daemon's chosen nodes; `ages` are plain per-node ages, given to it as
    the stamps a run keeps, cfg comes with the flags of its activable map,
    and the stream is of the daemon's own type."""
    act = activable_map(ANON, g, cfg)
    return daemon.select(g, daemon_view(cfg, act), act,
                         fairness_ages(ages or [0] * g.n, act),
                         daemon.stream(seed))


def test_synchronous_selects_every_activable_node():
    g = ring(6)
    nodes = select(make_daemon("synchronous", 6), g, Configuration((False,) * 6))
    assert nodes == list(range(6))


def test_aged_fair_with_bound_one_is_synchronous():
    g = ring(6)
    cfg = Configuration((False,) * 6)
    fair = select(make_daemon("aged_fair", 6, fairness=1), g, cfg, seed=3)
    sync = select(make_daemon("synchronous", 6), g, cfg, seed=3)
    assert fair == sync


def test_aged_fair_forces_old_nodes():
    g = ring(6)
    cfg = Configuration((False,) * 6)
    daemon = make_daemon("aged_fair", 6, fairness=4)
    ages = [0, 3, 0, 3, 0, 0]
    for _ in range(8):
        chosen = set(select(daemon, g, cfg, ages=ages))
        assert {1, 3} <= chosen


def test_random_subset_validity_and_density_check():
    g = ring(8)
    cfg = Configuration((False,) * 8)
    daemon = make_daemon("random_subset", 8, density=0.3)
    act = activable_map(ANON, g, cfg)
    for seed in range(20):
        nodes = daemon.select(g, cfg, act, fairness_ages([0] * 8, act),
                              RngStream(seed))
        assert nodes
        assert nodes == sorted(set(nodes)) and set(nodes) <= set(act)
    with pytest.raises(ConfigError):
        make_daemon("random_subset", 8, density=0.0)


def test_singleton_cycles_round_robin():
    g = ring(4)
    cfg = Configuration((False, True, False, True))
    # activable: only withdrawal candidates... none here, so use all-down
    cfg = Configuration((False,) * 4)
    daemon = make_daemon("singleton", 4)
    picks = [next(iter(select(daemon, g, cfg))) for _ in range(6)]
    assert picks == [0, 1, 2, 3, 0, 1]


def _singleton_at(n, cursor):
    """A fresh singleton daemon whose cursor is at `cursor`."""
    daemon = make_daemon("singleton", n)
    daemon._cursor = cursor
    return daemon


def _pick(daemon, n, activable):
    cfg = Configuration((False,) * n)
    return daemon.select(make_graph(n, []), daemon_view(cfg, activable),
                         activable, None, None)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_singleton_picks_what_the_modulo_walk_picks(data):
    """Over a sequence of activable sets, the flag search picks the node
    the walk over indices from the cursor, modulo n, picks."""
    n = data.draw(st.integers(1, 24))
    cursor = data.draw(st.integers(0, n - 1))
    daemon = _singleton_at(n, cursor)
    nodes = st.sets(st.integers(0, n - 1), min_size=1)
    for activable in data.draw(st.lists(nodes, min_size=1, max_size=8)):
        expected, cursor = singleton_pick(n, activable, cursor)
        assert _pick(daemon, n, activable) == [expected]


@pytest.mark.parametrize("n, activable, cursor, expected", [
    (1, {0}, 0, 0),           # one node
    (5, {4}, 4, 4),           # the cursor at n - 1 picks there
    (5, {0, 2}, 4, 0),        # the cursor at n - 1 wraps to 0
    (5, {1}, 3, 1),           # nothing at or after the cursor: wrap around
    (5, {1, 3}, 2, 3),
    (5, {0, 1, 2, 3, 4}, 0, 0),
])
def test_singleton_pick_at_the_edges(n, activable, cursor, expected):
    assert singleton_pick(n, activable, cursor)[0] == expected
    daemon = _singleton_at(n, cursor)
    assert _pick(daemon, n, activable) == [expected]
    # the next pick, from the cursor after it, agrees too
    _, after = singleton_pick(n, activable, cursor)
    assert _pick(daemon, n, activable) == [singleton_pick(n, activable, after)[0]]


def test_singleton_with_nothing_activable_is_an_engine_error():
    for cursor in (0, 2):
        with pytest.raises(EngineError, match="nothing activable"):
            _pick(_singleton_at(3, cursor), 3, {})


def test_singleton_walks_the_stepper_flags_with_an_always_activable_faulty_node():
    """A faulty node stays in the activable map, so its flag is always set:
    the daemon still picks what the walk over the map picks, move after
    move, on the stepper's own flags."""
    g, faulty = ring(7), 3
    rng = RngStream(4)
    activity = Activity(get_algorithm("byzantine"), g,
                        initial_configuration(g, True, "random", rng),
                        {faulty: make_strategy("oscillate")})
    daemon = make_daemon("singleton", g.n)
    cursor = 0
    for _ in range(60):
        assert activity.flags == activable_flags(g.n, activity.activable)
        assert activity.flags[faulty] == 1
        assert activity.activable[faulty] is Rule.BYZ
        expected, cursor = singleton_pick(g.n, activity.activable, cursor)
        assert daemon.select(g, activity, activity.activable, activity.ages,
                             rng) == [expected]
        activity.transition([expected], rng)


def test_conflict_greedy_prefers_adjacent_equal_values():
    g = ring(6)
    all_top = Configuration((True,) * 6)
    nodes = select(make_daemon("conflict_greedy", 6), g, all_top, seed=1)
    # every node has an activable equal-valued neighbor: all are in the core
    assert set(nodes) == set(range(6))


def test_conflict_greedy_pads_when_no_conflicts():
    g = make_graph(2, [])
    cfg = Configuration((False, False))
    # isolated nodes never conflict; selection still must be nonempty
    for seed in range(10):
        assert select(make_daemon("conflict_greedy", 2), g, cfg, seed=seed)


def test_scripted_daemon_replays_moves():
    daemon = make_daemon("scripted", 4, script=[
        [(0, Rule.TRY_WITHDRAW, 1), (1, Rule.TRY_WITHDRAW, None)],
    ])
    cfg = Configuration((True,) * 4)
    assert select(daemon, EXAMPLE, cfg) == [0, 1]


def test_scripted_daemon_sorts_by_node_and_collapses_repeats():
    daemon = make_daemon("scripted", 4, script=[
        [(2, Rule.TRY_WITHDRAW, 0), (0, Rule.TRY_WITHDRAW, 1),
         (2, Rule.TRY_WITHDRAW, 0)],
    ])
    assert select(daemon, EXAMPLE, Configuration((True,) * 4)) == [0, 2]


def test_scripted_daemon_feeds_its_draws_in_node_order():
    # node 3 has no draw: it is queued as None, which the stream draws
    daemon = make_daemon("scripted", 4, script=[
        [(3, Rule.TRY_WITHDRAW, None), (2, Rule.TRY_WITHDRAW, 0),
         (0, Rule.TRY_WITHDRAW, 1)],
    ])
    cfg = Configuration((True,) * 4)
    stream = daemon.stream(0)
    daemon.select(EXAMPLE, cfg, activable_map(ANON, EXAMPLE, cfg),
                  fairness_ages([0] * 4, {}), stream)
    assert list(stream.forced) == [1, 0, None]


def test_scripted_daemon_rejects_disabled_moves():
    daemon = make_daemon("scripted", 4, script=[[(0, Rule.TRY_WITHDRAW, None)]])
    with pytest.raises(ScriptError):
        select(daemon, EXAMPLE, Configuration((False,) * 4))


def test_scripted_daemon_exhaustion():
    daemon = make_daemon("scripted", 4, script=[])
    with pytest.raises(ScriptError):
        select(daemon, EXAMPLE, Configuration((True,) * 4))


def test_make_daemon_unknown_kind():
    with pytest.raises(ConfigError):
        make_daemon("oracle-of-delphi", 4)
    with pytest.raises(ConfigError):
        make_daemon("scripted", 4)


def test_fairness_bound_holds_across_trials():
    # run_trial raises InvariantViolation if any node waits >= F transitions
    # while continuously activable; completing the runs is the assertion
    for daemon, fairness in (("aged_fair", 3), ("synchronous", None)):
        spec = RunSpec(algorithm="byzantine", graph="ring", n=10, init="random",
                       daemon=daemon, fairness=fairness, master_seed=13,
                       trials=5, byzantine=(2,),
                       strategies=((2, "oscillate", None),))
        for trial in range(spec.trials):
            assert run_trial(spec, trial).record is not None
