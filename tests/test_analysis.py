import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mislab.algorithms import get_algorithm
from mislab.analysis import (
    ColorLedger,
    all_maximal_independent_sets,
    is_candidate_set,
    is_independent,
    is_legitimate,
    locally_alone_set,
)
from mislab.engine import Activity, Configuration, Rule
from mislab.errors import ConfigError
from mislab.graphs import complete, erdos_renyi, make_graph, path, ring, star
from reference import safe_alone_set, scripted_ledger, traced_trial

ANON = get_algorithm("anonymous")
EXAMPLE = make_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def bron_kerbosch_mis(g):
    """Independent oracle: maximal cliques of the complement graph."""
    comp = [frozenset(range(g.n)) - {u} - set(g.adjacency[u]) for u in range(g.n)]
    out = set()

    def bk(r, p, x):
        if not p and not x:
            out.add(frozenset(r))
            return
        for v in sorted(p):
            bk(r | {v}, p & comp[v], x & comp[v])
            p = p - {v}
            x = x | {v}

    bk(set(), set(range(g.n)), set())
    return out


# --- membership predicates -------------------------------------------------

def test_locally_alone_on_final_example_config():
    assert locally_alone_set(EXAMPLE, Configuration((False, True, False, True))) \
        == frozenset({1, 3})


def test_locally_alone_all_down_is_empty():
    assert locally_alone_set(EXAMPLE, Configuration((False,) * 4)) == frozenset()


def test_locally_alone_matches_worked_trace_midpoint():
    # the worked execution reaches (up, up, down, up): only node 3 is settled
    assert locally_alone_set(EXAMPLE, Configuration((True, True, False, True))) \
        == frozenset({3})


def test_locally_alone_edge_and_singleton():
    edge = make_graph(2, [(0, 1)])
    assert locally_alone_set(edge, Configuration((True, True))) == frozenset()
    lone = make_graph(1, [])
    assert locally_alone_set(lone, Configuration((True,))) == frozenset({0})


def test_safe_alone_restricts_to_distance_two_plus():
    g = star(4)
    for s in ((True,) * 5, (False, True, True, True, True)):
        assert safe_alone_set(g, frozenset({0}), Configuration(s)) == frozenset()


def test_safe_alone_equals_locally_alone_without_byzantines():
    cfg = Configuration((False, True, False, True))
    assert safe_alone_set(EXAMPLE, frozenset(), cfg) == \
        locally_alone_set(EXAMPLE, cfg)


# --- legitimacy -------------------------------------------------------------

def test_legitimacy_reduces_to_maximality_without_byzantines():
    g = erdos_renyi(8, 0.35, seed=21)
    oracle = all_maximal_independent_sets(g)
    for seed in range(60):
        s = tuple((seed >> u) & 1 == 1 for u in range(8))
        cfg = Configuration(s)
        expected = locally_alone_set(g, cfg) in oracle
        assert is_legitimate(g, frozenset(), cfg) == expected


def test_legitimacy_vacuous_when_no_ground_set():
    # byz center of a star wipes out both zones: every configuration passes
    g = star(4)
    byz = frozenset({0})
    for s in ((False,) * 5, (True,) * 5, (True, False, True, False, True)):
        assert is_legitimate(g, byz, Configuration(s))


def test_legitimacy_on_ring_six_hand_cases():
    # ring of 6 with byz node 0: zone1 = {2,3,4}, zone2 = {3}
    g = ring(6)
    byz = frozenset({0})
    legit = Configuration((False, False, False, True, False, False))
    assert is_legitimate(g, byz, legit)  # safe alone set {3} dominates zone2
    assert is_legitimate(
        g, byz, Configuration((False, True, False, False, True, False)))  # I={4}
    assert not is_legitimate(g, byz, Configuration((False,) * 6))  # 3 undominated
    assert not is_legitimate(
        g, byz, Configuration((False, False, True, True, False, False)))  # conflict


# --- brute-force enumeration ------------------------------------------------

def test_mis_oracle_triangle():
    assert all_maximal_independent_sets(complete(3)) == {
        frozenset({0}), frozenset({1}), frozenset({2})}


def test_mis_oracle_path_three():
    assert all_maximal_independent_sets(path(3)) == {
        frozenset({0, 2}), frozenset({1})}


def test_mis_oracle_example_graph():
    assert all_maximal_independent_sets(EXAMPLE) == {
        frozenset({0, 3}), frozenset({1, 3}), frozenset({2})}


def test_mis_oracle_refuses_large_graphs():
    with pytest.raises(ConfigError):
        all_maximal_independent_sets(erdos_renyi(17, 0.2, seed=1))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=9),
       seed=st.integers(min_value=0, max_value=10**6))
def test_mis_oracle_against_bron_kerbosch(n, seed):
    g = erdos_renyi(n, 0.45, seed=seed)
    assert all_maximal_independent_sets(g) == bron_kerbosch_mis(g)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=10),
       seed=st.integers(min_value=0, max_value=10**6))
def test_mis_members_are_independent_dominating(n, seed):
    g = erdos_renyi(n, 0.4, seed=seed)
    for members in all_maximal_independent_sets(g):
        assert is_independent(g, members)
        assert all(any(v in members for v in g.adjacency[u])
                   for u in range(n) if u not in members)


# --- candidate sets ---------------------------------------------------------

def test_candidate_sets_of_figure_configuration():
    cfg = Configuration((True, True, False, True))
    for good in ({0, 1, 3}, {0, 1}, {3}, set()):
        assert is_candidate_set(EXAMPLE, cfg, good)
    for bad in ({0}, {1}, {0, 3}, {1, 3}, {2}, {2, 3}):
        assert not is_candidate_set(EXAMPLE, cfg, bad)


# --- color ledger -----------------------------------------------------------

def test_ledger_rejects_counter_algorithms():
    byz = get_algorithm("byzantine")
    with pytest.raises(ConfigError):
        g = make_graph(1, [])
        ColorLedger(g, byz, Activity(byz, g, Configuration((False,), (0,))))


def test_initial_up_nodes_form_color_zero():
    g = path(2)
    cfg = Configuration((True, True))
    ledger, _ = scripted_ledger(ANON, g, cfg, [
        [(0, Rule.TRY_WITHDRAW, 0), (1, Rule.TRY_WITHDRAW, 0)],
        [(0, Rule.TRY_WITHDRAW, 1), (1, Rule.TRY_WITHDRAW, 0)],
    ])
    assert ledger.fresh_sets == {0: frozenset({0, 1})}
    # every withdrawal on a node up since the start carries color 0
    assert ledger.move_colors == [(0, 0), (0, 0)]
    zero = ledger.records[0]
    assert zero.died == 2 and zero.withdrawal_moves == 4
    # node 1 survived alone and settled: the color succeeded
    assert zero.success is True


def test_first_wave_of_candidacies_is_color_one():
    ledger, _ = scripted_ledger(ANON, EXAMPLE, Configuration((False,) * 4),
                                [[(u, Rule.CANDIDACY, None) for u in range(4)]])
    assert ledger.fresh_sets == {1: frozenset(range(4))}
    assert ledger.move_colors == [(1, 1, 1, 1)]


def test_lone_candidacy_color_dies_instantly_and_succeeds():
    g = path(3)
    ledger, _ = scripted_ledger(ANON, g, Configuration((False,) * 3),
                                [[(1, Rule.CANDIDACY, None)]])
    record = ledger.records[1]
    assert record.died == 1
    assert record.withdrawal_moves == 0
    assert record.success is True
    assert ledger.all_dead()


def test_failed_color_then_recandidacy_gets_new_color():
    g = path(2)
    ledger, _ = scripted_ledger(ANON, g, Configuration((True, True)), [
        [(0, Rule.TRY_WITHDRAW, 1), (1, Rule.TRY_WITHDRAW, 1)],  # both drop
        [(0, Rule.CANDIDACY, None), (1, Rule.CANDIDACY, None)],  # fresh color 2
        [(0, Rule.TRY_WITHDRAW, 1)],                             # node 0 yields
    ])
    zero, two = ledger.records[0], ledger.records[2]
    assert zero.died == 1 and zero.success is False
    assert two.members == frozenset({0, 1})
    assert two.died == 3 and two.success is True
    assert ledger.move_colors == [(0, 0), (2, 2), (2,)]


def test_recandidacy_taints_older_colors():
    # node 1 leaves color 0 and rejoins via color 2; color 0's success may
    # only rest on members whose every move stayed color 0
    g = path(3)
    ledger, _ = scripted_ledger(ANON, g, Configuration((True, True, False)), [
        [(1, Rule.TRY_WITHDRAW, 1)],            # 1 drops; 0 settles
        [(2, Rule.CANDIDACY, None)],            # unrelated color 2 appears
    ])
    zero = ledger.records[0]
    assert zero.died == 1 and zero.success is True  # node 0 settled untainted
    assert ledger.records[2].success is True
    assert ledger.all_dead()


def test_settled_member_that_rejoined_under_a_new_color_does_not_count():
    # node 0 of color 0 drops, comes back alone as color 2 and settles; when
    # color 0 dies, node 0 is its only settled member, but it shares node 0
    # with color 2, so color 0 failed
    g = make_graph(4, [(0, 1), (2, 3)])
    ledger, _ = scripted_ledger(ANON, g, Configuration((True,) * 4), [
        [(0, Rule.TRY_WITHDRAW, 1), (1, Rule.TRY_WITHDRAW, 1)],
        [(0, Rule.CANDIDACY, None)],
        [(2, Rule.TRY_WITHDRAW, 1), (3, Rule.TRY_WITHDRAW, 1)],
    ])
    zero, two = ledger.records[0], ledger.records[2]
    assert two.members == frozenset({0})
    assert two.died == 2 and two.success is True
    assert zero.died == 3 and zero.success is False
    assert ledger.move_colors == [(0, 0), (2,), (0, 0)]
    assert ledger.all_dead()


def test_ledger_incremental_matches_trace_replay():
    g = erdos_renyi(8, 0.35, seed=5)
    from mislab.harness import RunSpec

    spec = RunSpec(algorithm="anonymous", graph="erdos_renyi", n=8, p=0.35,
                   graph_seed=5, init="random", daemon="random_subset",
                   master_seed=31, instrument=True)
    outcome, trace = traced_trial(spec, 0)
    replayed, _ = scripted_ledger(ANON, outcome.graph, trace.initial,
                                  trace.entries())
    assert outcome.ledger.report_rows() == replayed.report_rows()
    assert outcome.ledger.move_colors == replayed.move_colors
