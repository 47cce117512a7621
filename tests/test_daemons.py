import pytest

from mislab.algorithms import get_algorithm
from mislab.daemons import make_daemon
from mislab.engine import Configuration, Move, RngStream, Rule, activable_map
from mislab.errors import ConfigError, ScriptError
from mislab.graphs import make_graph, ring
from mislab.harness import RunSpec, run_trial
from reference import fairness_ages

ANON = get_algorithm("anonymous")
EXAMPLE = make_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def select(daemon, g, cfg, ages=None, seed=0):
    """The daemon's moves; `ages` are plain per-node ages, given to it as
    the stamps a run keeps."""
    act = activable_map(ANON, g, cfg)
    return daemon.select(g, cfg, act, fairness_ages(ages or [0] * g.n, act),
                         RngStream(seed))


def test_synchronous_selects_every_activable_node():
    g = ring(6)
    moves = select(make_daemon("synchronous", 6), g, Configuration((False,) * 6))
    assert moves == [Move(u, Rule.CANDIDACY) for u in range(6)]


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
        chosen = {m.node for m in select(daemon, g, cfg, ages=ages)}
        assert {1, 3} <= chosen


def test_random_subset_validity_and_density_check():
    g = ring(8)
    cfg = Configuration((False,) * 8)
    daemon = make_daemon("random_subset", 8, density=0.3)
    act = activable_map(ANON, g, cfg)
    for seed in range(20):
        moves = daemon.select(g, cfg, act, fairness_ages([0] * 8, act),
                              RngStream(seed))
        assert moves
        assert all(m.node in act and m.rule in act[m.node] for m in moves)
    with pytest.raises(ConfigError):
        make_daemon("random_subset", 8, density=0.0)


def test_singleton_cycles_round_robin():
    g = ring(4)
    cfg = Configuration((False, True, False, True))
    # activable: only withdrawal candidates... none here, so use all-down
    cfg = Configuration((False,) * 4)
    daemon = make_daemon("singleton", 4)
    picks = [next(iter(select(daemon, g, cfg))).node for _ in range(6)]
    assert picks == [0, 1, 2, 3, 0, 1]


def test_conflict_greedy_prefers_adjacent_equal_values():
    g = ring(6)
    all_top = Configuration((True,) * 6)
    moves = select(make_daemon("conflict_greedy", 6), g, all_top, seed=1)
    # every node has an activable equal-valued neighbor: all are in the core
    assert {m.node for m in moves} == set(range(6))


def test_conflict_greedy_pads_when_no_conflicts():
    g = make_graph(2, [])
    cfg = Configuration((False, False))
    # isolated nodes never conflict; selection still must be nonempty
    for seed in range(10):
        assert select(make_daemon("conflict_greedy", 2), g, cfg, seed=seed)


def test_scripted_daemon_replays_moves():
    daemon = make_daemon("scripted", 4, script=[
        [(0, Rule.TRY_WITHDRAW), (1, Rule.TRY_WITHDRAW)],
    ])
    cfg = Configuration((True,) * 4)
    moves = select(daemon, EXAMPLE, cfg)
    assert moves == [Move(0, Rule.TRY_WITHDRAW), Move(1, Rule.TRY_WITHDRAW)]


def test_scripted_daemon_sorts_by_node_and_collapses_repeats():
    daemon = make_daemon("scripted", 4, script=[
        [(2, Rule.TRY_WITHDRAW), (0, Rule.TRY_WITHDRAW), (2, Rule.TRY_WITHDRAW)],
    ])
    moves = select(daemon, EXAMPLE, Configuration((True,) * 4))
    assert moves == [Move(0, Rule.TRY_WITHDRAW), Move(2, Rule.TRY_WITHDRAW)]


def test_scripted_daemon_rejects_disabled_moves():
    daemon = make_daemon("scripted", 4, script=[[(0, Rule.TRY_WITHDRAW)]])
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
