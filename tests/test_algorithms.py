import math

from hypothesis import given, settings
from hypothesis import strategies as st

from mislab.algorithms import candidacy_probability, get_algorithm
from mislab.engine import Configuration, FixedDraws, RngStream, Rule
from mislab.errors import EngineError, ScriptError
from mislab.graphs import erdos_renyi, make_graph, path, ring
from reference import enabled, move, paper_move

ANON = get_algorithm("anonymous")
BYZ = get_algorithm("byzantine")


def test_refresh_guard_and_command():
    g = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    cfg = Configuration((False,) * 4, (0, 1, 1, 1))
    assert enabled(BYZ, g, cfg, 0) == (Rule.REFRESH,)
    assert move(BYZ, g, cfg, 0, Rule.REFRESH) == (False, 3, None)


def test_refresh_guard_false_when_degree_matches():
    g = path(2)
    cfg = Configuration((False, False), (1, 1))
    assert Rule.REFRESH not in enabled(BYZ, g, cfg, 0)


def test_refresh_guard_false_on_isolated_zero():
    g = make_graph(1, [])
    cfg = Configuration((False,), (0,))
    assert enabled(BYZ, g, cfg, 0) == (Rule.TRY_CANDIDACY,)


def test_candidacy_probability_uses_neighborhood_max():
    # closed neighborhood advertises x-values {3, 2, 3}
    g = path(3)
    cfg = Configuration((False,) * 3, (3, 2, 3))
    assert candidacy_probability(g, cfg.x, 1) == 0.25


def test_candidacy_probability_counts_own_x():
    # u's own advertised x is in the max, even above its neighbors'
    g = path(3)
    cfg = Configuration((False,) * 3, (1, 5, 1))
    assert candidacy_probability(g, cfg.x, 1) == 1.0 / 6


def test_candidacy_probability_isolated_node():
    g = make_graph(1, [])
    cfg = Configuration((False,), (0,))
    assert candidacy_probability(g, cfg.x, 0) == 1.0


def test_candidacy_probability_with_lying_neighbor():
    g = path(2)
    cfg = Configuration((False, False), (1, 10**6))
    assert candidacy_probability(g, cfg.x, 0) == 1.0 / (1 + 10**6)


def test_try_candidacy_guard():
    g = path(3)
    good = Configuration((False, False, False), (1, 2, 1))
    assert enabled(BYZ, g, good, 1) == (Rule.TRY_CANDIDACY,)
    top_neighbor = Configuration((True, False, False), (1, 2, 1))
    assert enabled(BYZ, g, top_neighbor, 1) == ()
    wrong_x = Configuration((False, False, False), (1, 5, 1))
    assert Rule.TRY_CANDIDACY not in enabled(BYZ, g, wrong_x, 1)


def test_try_candidacy_command_depends_on_draw():
    g = path(2)
    cfg = Configuration((False, False), (1, 1))
    assert move(BYZ, g, cfg, 0, Rule.TRY_CANDIDACY, 1) == (True, 1, 1)
    assert move(BYZ, g, cfg, 0, Rule.TRY_CANDIDACY, 0) == (False, 1, 0)


def test_withdrawal_guard():
    g = path(2)
    both_top = Configuration((True, True), (1, 1))
    assert enabled(BYZ, g, both_top, 0) == (Rule.WITHDRAW,)
    assert enabled(BYZ, g, both_top, 1) == (Rule.WITHDRAW,)
    alone = Configuration((True, False), (1, 1))
    assert enabled(BYZ, g, alone, 0) == ()
    wrong_x = Configuration((True, True), (0, 1))
    assert enabled(BYZ, g, wrong_x, 0) == (Rule.REFRESH,)


def test_withdrawal_command():
    g = path(2)
    cfg = Configuration((True, True), (1, 1))
    assert move(BYZ, g, cfg, 0, Rule.WITHDRAW) == (False, 1, None)


def test_anonymous_candidacy_guard():
    g = ring(4)
    assert enabled(ANON, g, Configuration((False,) * 4), 0) == (Rule.CANDIDACY,)
    with_top_neighbor = Configuration((False, True, False, False))
    assert enabled(ANON, g, with_top_neighbor, 0) == ()
    already_top = Configuration((True, False, False, False))
    assert enabled(ANON, g, already_top, 0) == ()


def test_anonymous_withdrawal_guard():
    g = ring(4)
    all_top = Configuration((True,) * 4)
    for u in range(4):
        assert enabled(ANON, g, all_top, u) == (Rule.TRY_WITHDRAW,)
    alone = Configuration((True, False, True, False))
    assert enabled(ANON, g, alone, 0) == ()


def test_anonymous_commands():
    g = ring(4)
    cfg = Configuration((True,) * 4)
    assert move(ANON, g, cfg, 0, Rule.TRY_WITHDRAW, 1) == (False, None, 1)
    assert move(ANON, g, cfg, 0, Rule.TRY_WITHDRAW, 0) == (True, None, 0)
    down = Configuration((False,) * 4)
    assert move(ANON, g, down, 0, Rule.CANDIDACY) == (True, None, None)


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
        assert len(enabled(BYZ, g, byz_cfg, u)) <= 1
        assert len(enabled(ANON, g, anon_cfg, u)) <= 1


def _outcome(fn):
    """fn's result, or the type and message of the engine or script error
    it raised."""
    try:
        return fn()
    except (EngineError, ScriptError) as exc:
        return type(exc).__name__, str(exc)


class _Recorded:
    """A draw stream that records the probability of every draw it makes."""

    def __init__(self, rng):
        self.rng = rng
        self.probabilities = []

    def bernoulli(self, p):
        self.probabilities.append(p)
        return self.rng.bernoulli(p)


def _stream_state(rng):
    """Where a draw stream stands: an RngStream's position and next value,
    or the outcomes a FixedDraws has left."""
    if isinstance(rng, RngStream):
        return rng.position, rng.random()
    return list(rng._queue)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), data=st.data())
def test_step_matches_the_paper_form_commands(seed, data):
    """Any state, any rule of either algorithm (those of the other rule set
    and the faulty-node marker included), a seeded or a scripted draw
    stream: `step` returns what `rule_probability`, a Bernoulli draw and
    `apply` give, draws at the same probability, and leaves its stream
    where they leave theirs."""
    g = erdos_renyi(7, 0.4, seed=seed)
    algo = data.draw(st.sampled_from([BYZ, ANON]))
    s = tuple(data.draw(st.lists(st.booleans(), min_size=7, max_size=7)))
    x = (tuple(data.draw(st.lists(st.integers(0, 10**6), min_size=7, max_size=7)))
         if algo.uses_x else None)
    cfg = Configuration(s, x)
    u = data.draw(st.integers(0, 6))
    rule = data.draw(st.sampled_from(list(Rule)))
    if data.draw(st.booleans()):
        stream_seed = data.draw(st.integers(0, 2**32))
        streams = RngStream(stream_seed), RngStream(stream_seed)
    else:
        outcomes = data.draw(st.lists(st.integers(0, 1), max_size=2))
        streams = FixedDraws(outcomes), FixedDraws(outcomes)
    stepped, paper = _Recorded(streams[0]), _Recorded(streams[1])
    got = _outcome(lambda: algo.step(g, list(s), None if x is None else list(x),
                                     u, rule, stepped))
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
