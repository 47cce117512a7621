import pytest

from mislab.algorithms import get_algorithm
from mislab.byzantine import DEFAULT_X_CAP, make_strategy
from mislab.engine import Configuration, RngStream
from mislab.errors import ConfigError
from mislab.graphs import make_graph, path, ring, safe_zone
from reference import drawn_candidacy_probability

BYZ = get_algorithm("byzantine")


def test_silent_keeps_state():
    cfg = Configuration((True, False), (7, 1))
    assert make_strategy("silent").act(cfg, 0, RngStream(1)) == (True, 7)


def test_always_top_sets_flag_only():
    cfg = Configuration((False, False), (7, 1))
    assert make_strategy("always_top").act(cfg, 0, RngStream(1)) == (True, 7)


def test_oscillate_toggles_each_activation():
    strategy = make_strategy("oscillate")
    cfg = Configuration((False, False), (1, 1))
    s1, _ = strategy.act(cfg, 0, RngStream(1))
    assert s1 is True
    cfg2 = Configuration((True, False), (1, 1))
    s2, _ = strategy.act(cfg2, 0, RngStream(1))
    assert s2 is False


def test_degree_liar_advertises_cap():
    g = path(2)
    cfg = Configuration((False, False), (1, 1))
    s, x = make_strategy("degree_liar", x_cap=10**6).act(cfg, 0, RngStream(1))
    assert (s, x) == (False, 10**6)
    # the lie lands in the neighbor's candidacy probability
    lied = Configuration((False, False), (10**6, 1))
    assert drawn_candidacy_probability(g, lied.x, 1) == 1.0 / (1 + 10**6)


def test_uniform_random_ranges():
    strategy = make_strategy("uniform_random", x_cap=9)
    rng = RngStream(11)
    cfg = Configuration((False, False), (1, 1))
    seen_s = set()
    for _ in range(64):
        s, x = strategy.act(cfg, 0, rng)
        seen_s.add(s)
        assert 0 <= x <= 9
    assert seen_s == {True, False}


def test_strategies_without_x_leave_it_none():
    cfg = Configuration((False, False))
    for kind in ("silent", "always_top", "oscillate", "degree_liar",
                 "uniform_random"):
        _, x = make_strategy(kind).act(cfg, 0, RngStream(2))
        assert x is None


def test_default_cap():
    assert make_strategy("degree_liar").x_cap == DEFAULT_X_CAP == 2**32 - 1


def test_make_strategy_unknown():
    with pytest.raises(ConfigError):
        make_strategy("chaotic_neutral")


def test_distance_two_candidacy_probability_noninterference():
    # byz node 0 on a ring of 6 lies about x; nodes with no byz neighbor
    # must see the same candidacy probability as if the lie were zeroed
    g = ring(6)
    byz = frozenset({0})
    zone1 = safe_zone(g, byz, 1)
    lied = Configuration((False,) * 6, (10**9, 2, 2, 2, 2, 2))
    zeroed = Configuration((False,) * 6, (0, 2, 2, 2, 2, 2))
    assert zone1 == frozenset({2, 3, 4})
    for u in zone1:
        assert drawn_candidacy_probability(g, lied.x, u) == \
            drawn_candidacy_probability(g, zeroed.x, u)
    # contrast: a direct neighbor of the liar is affected
    assert drawn_candidacy_probability(g, lied.x, 1) != \
        drawn_candidacy_probability(g, zeroed.x, 1)


def test_star_center_lie_reaches_every_leaf():
    g = make_graph(3, [(0, 1), (0, 2)])
    cfg = Configuration((False,) * 3, (10**6, 1, 1))
    for leaf in (1, 2):
        assert drawn_candidacy_probability(g, cfg.x, leaf) == 1.0 / (1 + 10**6)
