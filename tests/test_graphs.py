import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mislab.errors import ConfigError
from mislab.graphs import (
    UNREACHABLE,
    complete,
    distances_from,
    erdos_renyi,
    generate_graph,
    grid,
    make_graph,
    near_square_grid,
    path,
    random_tree,
    read_graph,
    ring,
    safe_zone,
    sized_params,
    star,
    write_graph,
)
from reference import pairwise_erdos_renyi_edges


def test_ring_four():
    g = ring(4)
    assert g.n == 4
    assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})
    assert g.max_degree == 2


def test_star_five_leaves():
    g = star(5)
    assert g.n == 6
    assert g.max_degree == 5
    assert g.degree(0) == 5
    assert all(g.degree(u) == 1 for u in range(1, 6))


def test_erdos_renyi_p_zero_is_empty():
    g = erdos_renyi(8, 0.0, seed=123)
    assert g.n == 8
    assert not g.edges
    assert g.max_degree == 0


def test_erdos_renyi_deterministic_per_seed():
    a = erdos_renyi(12, 0.4, seed=99)
    b = erdos_renyi(12, 0.4, seed=99)
    assert a.edges == b.edges


#: the edge probabilities whose candidate byte int(p * 256) is a regex
#: metacharacter inside a byte class
METACHARACTER_PS = tuple(b / 256 + 1 / 512 for b in b"-\\]^")


@pytest.mark.parametrize("p", [0.0, 1.0, 0.9999, 0.01, *METACHARACTER_PS])
@pytest.mark.parametrize("n", [1, 2, 3, 41])
def test_erdos_renyi_matches_pairwise_draws(n, p):
    for seed in (0, 1, 99, 2**40 + 3):
        assert erdos_renyi(n, p, seed).edges == pairwise_erdos_renyi_edges(n, p, seed)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 60), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**64))
def test_erdos_renyi_matches_pairwise_draws_anywhere(n, p, seed):
    assert erdos_renyi(n, p, seed).edges == pairwise_erdos_renyi_edges(n, p, seed)


def test_grid_two_by_three():
    g = grid(2, 3)
    assert g.n == 6
    assert len(g.edges) == 7
    assert g.max_degree == 3


def test_path_and_complete():
    assert path(3).edges == frozenset({(0, 1), (1, 2)})
    assert complete(4).max_degree == 3
    assert len(complete(4).edges) == 6


def test_random_tree_shape():
    g = random_tree(10, seed=4)
    assert len(g.edges) == 9
    dist = distances_from(g, [0])
    assert all(d != UNREACHABLE for d in dist)


def test_make_graph_rejects_bad_edges():
    with pytest.raises(ConfigError):
        make_graph(3, [(0, 0)])
    with pytest.raises(ConfigError):
        make_graph(3, [(0, 5)])


def test_generator_param_validation():
    with pytest.raises(ConfigError):
        ring(0)
    with pytest.raises(ConfigError):
        erdos_renyi(4, 1.5)
    with pytest.raises(ConfigError):
        generate_graph("moebius", n=4)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["ring", "path", "complete", "erdos_renyi", "random_tree"]),
       n=st.integers(min_value=1, max_value=20),
       seed=st.integers(min_value=0, max_value=2**32))
def test_generator_determinism(kind, n, seed):
    params = {"n": n, "p": 0.3} if kind == "erdos_renyi" else {"n": n}
    a = generate_graph(kind, seed=seed, **params)
    b = generate_graph(kind, seed=seed, **params)
    assert a.edges == b.edges


def test_distances_on_ring_six():
    g = ring(6)
    dist = distances_from(g, [0])
    assert dist == [0, 1, 2, 3, 2, 1]


def test_distances_empty_sources():
    g = ring(6)
    assert all(d == UNREACHABLE for d in distances_from(g, []))


def test_distances_star_center():
    g = star(5)
    dist = distances_from(g, [0])
    assert all(dist[u] == 1 for u in range(1, 6))


def test_distances_source_validation():
    with pytest.raises(ConfigError):
        distances_from(ring(4), [9])


def test_safe_zone_star_center():
    g = star(5)
    assert safe_zone(g, {0}, 0) == frozenset(range(1, 6))
    assert safe_zone(g, {0}, 1) == frozenset()


def test_safe_zone_ring_six():
    g = ring(6)
    assert safe_zone(g, {0}, 2) == frozenset({3})


def test_safe_zone_empty_byzantine_set():
    g = ring(5)
    for i in range(4):
        assert safe_zone(g, frozenset(), i) == frozenset(range(5))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=12),
       seed=st.integers(min_value=0, max_value=1000),
       data=st.data())
def test_safe_zone_chain_and_neighbor_characterization(n, seed, data):
    g = erdos_renyi(n, 0.4, seed=seed)
    byz = frozenset(data.draw(
        st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n)))
    zones = [safe_zone(g, byz, i) for i in range(n + 1)]
    for i in range(n):
        assert zones[i + 1] <= zones[i]
        # next level is exactly the current-level nodes with all neighbors inside
        recomputed = frozenset(
            u for u in zones[i] if all(v in zones[i] for v in g.adjacency[u]))
        assert zones[i + 1] == recomputed


def test_graph_file_round_trip(tmp_path):
    g = erdos_renyi(9, 0.5, seed=7)
    buf = io.StringIO()
    write_graph(g, buf)
    back = read_graph(io.StringIO(buf.getvalue()))
    assert back.n == g.n
    assert back.edges == g.edges
    assert back.adjacency == g.adjacency


def test_read_graph_rejects_garbage():
    with pytest.raises(ConfigError):
        read_graph(io.StringIO("not a header\n"))
    with pytest.raises(ConfigError):
        read_graph(io.StringIO("2 1\n0\n"))


def test_near_square_grid():
    assert near_square_grid(16) == (4, 4)
    assert near_square_grid(32) == (4, 8)
    assert near_square_grid(64) == (8, 8)
    assert near_square_grid(7) == (1, 7)


def test_sized_params_cover_sweep_kinds():
    assert sized_params("ring", 8) == {"n": 8}
    assert sized_params("star", 8) == {"leaves": 7}
    assert sized_params("grid", 12) == {"rows": 3, "cols": 4}
    with pytest.raises(ConfigError):
        sized_params("file", 8)
