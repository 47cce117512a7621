import io
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mislab.errors import ConfigError
from mislab.graphs import (
    GRAPH_KINDS,
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
#: metacharacter, which a byte search must escape
METACHARACTER_PS = tuple(b / 256 + 1 / 512 for b in b"-\\]^")


#: the edge probabilities on the boundary between the top bytes that are
#: sure edges and the one top byte that is tested exactly
BOUNDARY_PS = tuple(q for k in (1, 2, 255) for q in (k / 256, k / 256 - 2**-40))


@pytest.mark.parametrize(
    "p", [0.0, 1.0, 0.9999, 0.01, *METACHARACTER_PS, *BOUNDARY_PS])
@pytest.mark.parametrize("n", [1, 2, 3, 41])
def test_erdos_renyi_matches_pairwise_draws(n, p):
    for seed in (0, 1, 99, 2**40 + 3):
        assert erdos_renyi(n, p, seed) == make_graph(
            n, pairwise_erdos_renyi_edges(n, p, seed))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 60), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**64))
def test_erdos_renyi_matches_pairwise_draws_anywhere(n, p, seed):
    assert erdos_renyi(n, p, seed) == make_graph(
        n, pairwise_erdos_renyi_edges(n, p, seed))


def assert_rows_well_formed(g):
    """Every row strictly ascending, the rows symmetric, and max_degree the
    longest row."""
    adjacency = g.adjacency
    assert len(adjacency) == g.n
    for u, row in enumerate(adjacency):
        assert all(a < b for a, b in zip(row, row[1:]))
        assert all(0 <= v < g.n and v != u and u in adjacency[v] for v in row)
    assert g.max_degree == max(map(len, adjacency), default=0)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 12), data=st.data())
def test_make_graph_rows_from_any_edge_list(n, data):
    node = st.integers(0, n - 1)
    edges = data.draw(st.lists(
        st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=40))
    normalized = frozenset((min(u, v), max(u, v)) for u, v in edges)
    shuffled = data.draw(st.permutations(edges))
    reversed_ = [(v, u) for u, v in edges]
    duplicated = edges + data.draw(st.permutations(edges)) + reversed_
    g = make_graph(n, edges)
    for variant in (shuffled, reversed_, duplicated):
        assert make_graph(n, variant) == g
    assert_rows_well_formed(g)
    assert g.edges == normalized


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(GRAPH_KINDS),
       size=st.integers(1, 40), p=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32))
def test_every_generator_builds_well_formed_rows(kind, size, p, seed):
    params = {**sized_params(kind, size), "p": p}
    g = generate_graph(kind, seed=seed, **params)
    assert_rows_well_formed(g)
    assert make_graph(g.n, g.edges) == g


def test_erdos_renyi_memory_stays_bounded():
    """G(2000, 0.01) is held once, as rows: the build peaks under 2.5 MiB
    and the graph keeps under 1.5 MiB."""
    erdos_renyi(10, 0.5)  # one-time allocations of a first call are not the build's
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        g = erdos_renyi(2000, 0.01)
        now, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert g.n == 2000
    assert peak - before < 2.5 * 2**20
    assert now - before < 1.5 * 2**20


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


def _ring_edges(n):
    return [(i, (i + 1) % n) for i in range(n)] if n > 1 else []


def _grid_edges(rows, cols):
    return ([(r * cols + c, r * cols + c + 1)
             for r in range(rows) for c in range(cols - 1)]
            + [(r * cols + c, (r + 1) * cols + c)
               for r in range(rows - 1) for c in range(cols)])


def test_ring_and_path_rows_equal_make_graph_of_their_edges():
    """ring and path write their ascending rows directly; they are the rows
    make_graph builds from the edge lists (for n = 2 the ring's two edges
    are one, and n = 1 has none)."""
    for n in range(1, 65):
        assert ring(n) == make_graph(n, _ring_edges(n)), n
        assert path(n) == make_graph(n, [(i, i + 1) for i in range(n - 1)]), n


def test_grid_rows_equal_make_graph_of_its_edges():
    for rows in range(1, 10):
        for cols in range(1, 10):
            assert grid(rows, cols) == make_graph(
                rows * cols, _grid_edges(rows, cols)), (rows, cols)


def test_generator_param_validation():
    for build, args, message in [
        (ring, (0,), "n must be a positive integer, got 0"),
        (ring, (-3,), "n must be a positive integer, got -3"),
        (path, (0,), "n must be a positive integer, got 0"),
        (path, (2.0,), "n must be a positive integer, got 2.0"),
        (grid, (0, 4), "rows must be a positive integer, got 0"),
        (grid, (4, 0), "cols must be a positive integer, got 0"),
        (grid, (-1, -1), "rows must be a positive integer, got -1"),
    ]:
        with pytest.raises(ConfigError, match=f"^{message}$"):
            build(*args)
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


def test_read_graph_rejects_lines_past_the_declared_edges():
    with pytest.raises(ConfigError, match="^line 4: "):
        read_graph(io.StringIO("4 2\n0 1\n1 2\n2 3\n"))
    with pytest.raises(ConfigError, match="^line 1: "):
        read_graph(io.StringIO("3 -1\n"))
    # trailing blank lines are not edges
    g = read_graph(io.StringIO("3 1\n0 1\n\n  \n"))
    assert (g.n, g.edges) == (3, frozenset({(0, 1)}))


@pytest.mark.parametrize("second", ["0 1", "1 0"])
def test_read_graph_rejects_a_repeated_edge(second):
    with pytest.raises(ConfigError,
                       match=f"^line 3: edge {second} repeats the edge on line 2$"):
        read_graph(io.StringIO(f"3 2\n0 1\n{second}\n"))


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
