import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mislab.algorithms import get_algorithm
from mislab.byzantine import make_strategy
from mislab.engine import (
    BYZ,
    CANDIDACY,
    REFRESH,
    TRY_CANDIDACY,
    TRY_WITHDRAW,
    WITHDRAW,
    Configuration,
    RngStream,
)
from mislab.errors import EngineError, ScriptError
from mislab.graphs import complete, erdos_renyi, make_graph, path, ring, star
from reference import (
    RecordingStream as _Recorded,
    counted_state,
    drawn_candidacy_probability,
    enabled,
    forced_draws,
    move,
    paper_move,
    paper_rules,
    step_one,
)

ANON = get_algorithm("anonymous")
BYZANTINE = get_algorithm("byzantine")


def test_refresh_guard_and_command():
    g = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    cfg = Configuration((False,) * 4, (0, 1, 1, 1))
    assert enabled(BYZANTINE, g, cfg, 0) == (REFRESH,)
    assert move(BYZANTINE, g, cfg, 0, REFRESH) == (False, 3, None)


def test_refresh_guard_false_when_degree_matches():
    g = path(2)
    cfg = Configuration((False, False), (1, 1))
    assert REFRESH not in enabled(BYZANTINE, g, cfg, 0)


def test_refresh_guard_false_on_isolated_zero():
    g = make_graph(1, [])
    cfg = Configuration((False,), (0,))
    assert enabled(BYZANTINE, g, cfg, 0) == (TRY_CANDIDACY,)


def test_candidacy_probability_uses_neighborhood_max():
    # closed neighborhood advertises x-values {3, 2, 3}
    g = path(3)
    cfg = Configuration((False,) * 3, (3, 2, 3))
    assert drawn_candidacy_probability(g, cfg.x, 1) == 0.25


def test_candidacy_probability_counts_own_x():
    # u's own advertised x is in the max, even above its neighbors'
    g = path(3)
    cfg = Configuration((False,) * 3, (1, 5, 1))
    assert drawn_candidacy_probability(g, cfg.x, 1) == 1.0 / 6


def test_candidacy_probability_isolated_node():
    g = make_graph(1, [])
    cfg = Configuration((False,), (0,))
    assert drawn_candidacy_probability(g, cfg.x, 0) == 1.0


def test_candidacy_probability_with_lying_neighbor():
    g = path(2)
    cfg = Configuration((False, False), (1, 10**6))
    assert drawn_candidacy_probability(g, cfg.x, 0) == 1.0 / (1 + 10**6)


def test_try_candidacy_guard():
    g = path(3)
    good = Configuration((False, False, False), (1, 2, 1))
    assert enabled(BYZANTINE, g, good, 1) == (TRY_CANDIDACY,)
    top_neighbor = Configuration((True, False, False), (1, 2, 1))
    assert enabled(BYZANTINE, g, top_neighbor, 1) == ()
    wrong_x = Configuration((False, False, False), (1, 5, 1))
    assert TRY_CANDIDACY not in enabled(BYZANTINE, g, wrong_x, 1)


def test_try_candidacy_command_depends_on_draw():
    g = path(2)
    cfg = Configuration((False, False), (1, 1))
    assert move(BYZANTINE, g, cfg, 0, TRY_CANDIDACY, 1) == (True, 1, 1)
    assert move(BYZANTINE, g, cfg, 0, TRY_CANDIDACY, 0) == (False, 1, 0)


def test_withdrawal_guard():
    g = path(2)
    both_top = Configuration((True, True), (1, 1))
    assert enabled(BYZANTINE, g, both_top, 0) == (WITHDRAW,)
    assert enabled(BYZANTINE, g, both_top, 1) == (WITHDRAW,)
    alone = Configuration((True, False), (1, 1))
    assert enabled(BYZANTINE, g, alone, 0) == ()
    wrong_x = Configuration((True, True), (0, 1))
    assert enabled(BYZANTINE, g, wrong_x, 0) == (REFRESH,)


def test_withdrawal_command():
    g = path(2)
    cfg = Configuration((True, True), (1, 1))
    assert move(BYZANTINE, g, cfg, 0, WITHDRAW) == (False, 1, None)


def test_anonymous_candidacy_guard():
    g = ring(4)
    assert enabled(ANON, g, Configuration((False,) * 4), 0) == (CANDIDACY,)
    with_top_neighbor = Configuration((False, True, False, False))
    assert enabled(ANON, g, with_top_neighbor, 0) == ()
    already_top = Configuration((True, False, False, False))
    assert enabled(ANON, g, already_top, 0) == ()


def test_anonymous_withdrawal_guard():
    g = ring(4)
    all_top = Configuration((True,) * 4)
    for u in range(4):
        assert enabled(ANON, g, all_top, u) == (TRY_WITHDRAW,)
    alone = Configuration((True, False, True, False))
    assert enabled(ANON, g, alone, 0) == ()


def test_anonymous_commands():
    g = ring(4)
    cfg = Configuration((True,) * 4)
    assert move(ANON, g, cfg, 0, TRY_WITHDRAW, 1) == (False, None, 1)
    assert move(ANON, g, cfg, 0, TRY_WITHDRAW, 0) == (True, None, 0)
    down = Configuration((False,) * 4)
    assert move(ANON, g, down, 0, CANDIDACY) == (True, None, None)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), data=st.data())
def test_rule_exclusivity(seed, data):
    # at most one guard can hold per node, whatever the configuration
    g = erdos_renyi(7, 0.4, seed=seed)
    s = tuple(data.draw(st.booleans()) for _ in range(7))
    x = tuple(data.draw(st.integers(min_value=0, max_value=8)) for _ in range(7))
    byz_cfg = Configuration(s, x)
    anon_cfg = Configuration(s)
    for u in range(7):
        assert len(enabled(BYZANTINE, g, byz_cfg, u)) <= 1
        assert len(enabled(ANON, g, anon_cfg, u)) <= 1


@pytest.mark.parametrize("g", [path(4), star(3), complete(4)],
                         ids=["path4", "star3", "K4"])
def test_counted_guard_returns_the_one_rule_the_paper_guards_enable(g):
    """Every s-vector, and for the Byzantine rules every x with x[u] in
    {deg u, deg u + 1}: the paper-form guards, each evaluated on its own,
    enable at most one rule, and `enabled_rules` returns exactly that rule,
    or None. The activable map holds one rule per node on this ground."""
    near_degree = [(g.degree(u), g.degree(u) + 1) for u in range(g.n)]
    for s in itertools.product((False, True), repeat=g.n):
        cases = [(ANON, Configuration(s))] + [
            (BYZANTINE, Configuration(s, x)) for x in itertools.product(*near_degree)]
        for algo, cfg in cases:
            state = counted_state(g, cfg)
            for u in range(g.n):
                rules = paper_rules(algo, g, cfg, u)
                assert len(rules) <= 1, (algo.name, u, cfg)
                assert algo.enabled_rules(*state, u) == (
                    rules[0] if rules else None), (algo.name, u, cfg)


def _outcome(fn):
    """fn's result, or the type and message of the engine or script error
    it raised."""
    try:
        return fn()
    except (EngineError, ScriptError) as exc:
        return type(exc).__name__, str(exc)


def _stream_state(rng):
    """Where a draw stream stands: the outcomes a FixedDraws has left, and
    the stream's state and next value."""
    return list(getattr(rng, "forced", ())), rng.getstate(), rng.random()


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), data=st.data())
def test_step_matches_the_paper_form_commands(seed, data):
    """Any state, any rule of either algorithm or the faulty-node marker,
    a seeded or a scripted draw stream: `step` on a one-move list returns what `rule_probability`, a
    Bernoulli draw and `apply` give, or for the faulty-node marker what the
    node's strategy gives, draws at the same probability, and leaves its
    stream where they leave theirs."""
    g = erdos_renyi(7, 0.4, seed=seed)
    algo = data.draw(st.sampled_from([BYZANTINE, ANON]))
    s = tuple(data.draw(st.lists(st.booleans(), min_size=7, max_size=7)))
    x = (tuple(data.draw(st.lists(st.integers(0, 10**6), min_size=7, max_size=7)))
         if algo.uses_x else None)
    cfg = Configuration(s, x)
    u = data.draw(st.integers(0, 6))
    rule = data.draw(st.sampled_from((*algo.rules, BYZ)))
    if data.draw(st.booleans()):
        stream_seed = data.draw(st.integers(0, 2**32))
        streams = RngStream(stream_seed), RngStream(stream_seed)
    else:
        outcomes = data.draw(st.lists(st.integers(0, 1), max_size=2))
        streams = forced_draws(outcomes), forced_draws(outcomes)
    stepped, paper = _Recorded(streams[0]), _Recorded(streams[1])
    strategy = make_strategy("uniform_random", 50)
    got = _outcome(lambda: step_one(algo, g, counted_state(g, cfg), u, rule,
                                    stepped, {u: strategy}))
    if rule is BYZ:
        expected = (*strategy.act(cfg, u, paper), None)
    else:
        expected = _outcome(lambda: paper_move(algo, g, cfg, u, rule, paper))
    assert got == expected
    assert stepped.probabilities == paper.probabilities
    assert _stream_state(streams[0]) == _stream_state(streams[1])


@given(k=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_shrinking_power_inequality_spot(k):
    # (1 - 1/(k+1))^k stays above 1/e; the acceptance suite sweeps the
    # full range exhaustively
    assert (1.0 - 1.0 / (k + 1.0)) ** k > math.exp(-1.0)
