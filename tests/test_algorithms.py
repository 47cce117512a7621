import math

from hypothesis import given, settings
from hypothesis import strategies as st

from mislab.algorithms import candidacy_probability, get_algorithm
from mislab.engine import Configuration, Rule
from mislab.graphs import erdos_renyi, make_graph, path, ring
from reference import enabled

ANON = get_algorithm("anonymous")
BYZ = get_algorithm("byzantine")


def test_refresh_guard_and_command():
    g = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    cfg = Configuration((False,) * 4, (0, 1, 1, 1))
    assert enabled(BYZ, g, cfg, 0) == (Rule.REFRESH,)
    assert BYZ.apply(g, cfg, 0, Rule.REFRESH, None) == (False, 3)


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
    assert candidacy_probability(g, cfg, 1) == 0.25


def test_candidacy_probability_isolated_node():
    g = make_graph(1, [])
    cfg = Configuration((False,), (0,))
    assert candidacy_probability(g, cfg, 0) == 1.0


def test_candidacy_probability_with_lying_neighbor():
    g = path(2)
    cfg = Configuration((False, False), (1, 10**6))
    assert candidacy_probability(g, cfg, 0) == 1.0 / (1 + 10**6)


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
    assert BYZ.apply(g, cfg, 0, Rule.TRY_CANDIDACY, 1) == (True, 1)
    assert BYZ.apply(g, cfg, 0, Rule.TRY_CANDIDACY, 0) == (False, 1)


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
    assert BYZ.apply(g, cfg, 0, Rule.WITHDRAW, None) == (False, 1)


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
    assert ANON.apply(g, cfg, 0, Rule.TRY_WITHDRAW, 1) == (False, None)
    assert ANON.apply(g, cfg, 0, Rule.TRY_WITHDRAW, 0) == (True, None)
    down = Configuration((False,) * 4)
    assert ANON.apply(g, down, 0, Rule.CANDIDACY, None) == (True, None)


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


@given(k=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_shrinking_power_inequality_spot(k):
    # (1 - 1/(k+1))^k stays above 1/e; the acceptance suite sweeps the
    # full range exhaustively
    assert (1.0 - 1.0 / (k + 1.0)) ** k > math.exp(-1.0)
