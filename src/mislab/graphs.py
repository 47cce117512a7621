"""Immutable graphs, deterministic generators, and the safe zones around faulty nodes."""

from __future__ import annotations

import math
import random
import re
from typing import IO, Iterable

from .errors import ConfigError, Record, known_kind

#: 2**-53, the scale of `random.random()`'s 53-bit integer
_TWO_POW_MINUS_53 = 1.0 / 9007199254740992.0

_ZERO_BYTE = re.compile(rb"\x00")


class Graph(Record, frozen=True):
    """Undirected simple graph over dense node indices 0..n-1, held once, as
    adjacency: `adjacency[u]` lists u's neighbors in ascending order.

    `edges` is derived from the rows on each read, at O(m); no run path
    reads it. Immutable after construction; safe to share between
    concurrent trials.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    max_degree: int

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Every edge once, as (u, v) with u < v."""
        return frozenset((u, v) for u, row in enumerate(self.adjacency)
                         for v in row if v > u)

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])


def _from_rows(n: int, rows: list[list[int]]) -> Graph:
    adjacency = tuple(map(tuple, rows))
    return Graph(n, adjacency, max(map(len, adjacency), default=0))


def _check_edge(n: int, u: int, v: int, where: str = "") -> None:
    if u == v:
        raise ConfigError(f"{where}self-loop on node {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise ConfigError(f"{where}edge ({u},{v}) out of range for n={n}")


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a validated Graph from an edge list.

    Self-loops are rejected, duplicates collapse, endpoints must lie in [0, n).
    """
    if n < 0:
        raise ConfigError(f"node count must be nonnegative, got {n}")
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        _check_edge(n, u, v)
        rows[u].append(v)
        rows[v].append(u)
    return _from_rows(n, [sorted(set(row)) for row in rows])


def _require_positive(name: str, value: int) -> int:
    if not isinstance(value, int) or value < 1:
        raise ConfigError(f"{name} must be a positive integer, got {value!r}")
    return value


def ring(n: int) -> Graph:
    """Cycle 0-1-...-(n-1)-0; one edge for n = 2, none for n = 1. Each
    row is written ascending: (1, n-1), then (u-1, u+1), then (0, n-2)."""
    _require_positive("n", n)
    if n <= 2:
        return path(n)
    return _from_rows(n, [(1, n - 1), *zip(range(n - 2), range(2, n)),
                          (0, n - 2)])


def path(n: int) -> Graph:
    """Path 0-1-...-(n-1), each row written ascending: (u-1, u+1) inside,
    one neighbor at either end."""
    _require_positive("n", n)
    if n == 1:
        return _from_rows(1, [()])
    return _from_rows(n, [(1,), *zip(range(n - 2), range(2, n)), (n - 2,)])


def star(leaves: int) -> Graph:
    """Star with center 0, row 1..leaves, and `leaves` outer nodes, row (0,)
    each; without leaves, the center alone."""
    if not isinstance(leaves, int) or leaves < 0:
        raise ConfigError(f"leaves must be a nonnegative integer, got {leaves!r}")
    return _from_rows(leaves + 1, [range(1, leaves + 1)] + [(0,)] * leaves)


def complete(n: int) -> Graph:
    """Every pair of nodes adjacent: row u is 0..n-1 without u, sliced from
    one tuple so that the rows share its ints."""
    _require_positive("n", n)
    nodes = tuple(range(n))
    return _from_rows(n, [nodes[:u] + nodes[u + 1:] for u in range(n)])


def grid(rows: int, cols: int) -> Graph:
    """Rectangular grid, nodes numbered row-major. Each row is written
    ascending: the node above, left, right and below, where they exist."""
    _require_positive("rows", rows)
    _require_positive("cols", cols)
    adjacency = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            row = []
            if r:
                row.append(u - cols)
            if c:
                row.append(u - 1)
            if c + 1 < cols:
                row.append(u + 1)
            if r + 1 < rows:
                row.append(u + cols)
            adjacency.append(row)
    return _from_rows(rows * cols, adjacency)


def erdos_renyi(n: int, p: float, seed: int = 0) -> Graph:
    """G(n, p): every pair drawn independently. Connectedness is not guaranteed.

    The edges are those of `random.Random(seed).random() < p` drawn for each
    pair (i, j), i < j, in row-major order, but a row's draws are read in
    bulk. `random()` consumes two Mersenne Twister words w0, w1 and returns
    ((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53, which lies in [b/256, (b+1)/256)
    for b = w0 >> 24. One `getrandbits(64 * m)` call yields the same 2m words
    for a row of m pairs. With top = min(int(p * 256), 255), a pair whose
    w0 top byte b is below top is an edge, as (b+1)/256 <= p; a pair with
    b == top is tested exactly; any other is not an edge. Each edge (i, j)
    goes straight into rows i and j in row-major order, so every row comes
    out ascending. One row of draws is held at a time.
    """
    _require_positive("n", n)
    if not (0.0 <= p <= 1.0):
        raise ConfigError(f"edge probability must be in [0,1], got {p}")
    rng = random.Random(seed)
    top = min(int(p * 256), 255)
    # a candidate's top byte (at most top) becomes 0, any other byte 1
    marks = bytes(b > top for b in range(256))
    rows: list[list[int]] = [[] for _ in range(n)]
    for i in range(n - 1):
        m = n - 1 - i
        words = rng.getrandbits(64 * m).to_bytes(8 * m, "little")
        # byte 8k + 3 is the top byte of pair k's first word; a C-level
        # translate and zero-byte search find the candidates
        tops = words[3::8]
        row = rows[i]
        for match in _ZERO_BYTE.finditer(tops.translate(marks)):
            k = match.start()
            if tops[k] == top:
                w0 = int.from_bytes(words[8 * k:8 * k + 4], "little")
                w1 = int.from_bytes(words[8 * k + 4:8 * k + 8], "little")
                if ((w0 >> 5) * 67108864.0 + (w1 >> 6)) * _TWO_POW_MINUS_53 >= p:
                    continue
            j = i + 1 + k
            row.append(j)
            rows[j].append(i)
    return _from_rows(n, rows)


def random_tree(n: int, seed: int = 0) -> Graph:
    """Random attachment tree: node i links to a uniform earlier node."""
    _require_positive("n", n)
    rng = random.Random(seed)
    return make_graph(n, [(i, rng.randrange(i)) for i in range(1, n)])


def near_square_grid(n: int) -> tuple[int, int]:
    """Largest divisor pair (rows, cols) with rows <= cols, used by size sweeps."""
    _require_positive("n", n)
    rows = 1
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            rows = d
    return rows, n // rows


#: Generator graph kinds: kind -> (the run-spec parameters it reads, a
#: builder taking the graph seed and those parameters in order, the
#: parameters that realize a sweep size).
GENERATORS = {
    "ring": (("n",), lambda seed, n: ring(n), lambda size: {"n": size}),
    "path": (("n",), lambda seed, n: path(n), lambda size: {"n": size}),
    "star": (("leaves",), lambda seed, leaves: star(leaves),
             lambda size: {"leaves": size - 1}),
    "complete": (("n",), lambda seed, n: complete(n), lambda size: {"n": size}),
    "grid": (("rows", "cols"), lambda seed, rows, cols: grid(rows, cols),
             lambda size: dict(zip(("rows", "cols"), near_square_grid(size)))),
    "erdos_renyi": (("n", "p"), lambda seed, n, p: erdos_renyi(n, p, seed),
                    lambda size: {"n": size}),
    "random_tree": (("n",), lambda seed, n: random_tree(n, seed),
                    lambda size: {"n": size}),
}
GRAPH_KINDS = tuple(GENERATORS)

#: The largest graph a generator builds: its nodes, and the node pairs it
#: walks, which are complete's edges and the pairs G(n, p) draws.
MAX_NODES, MAX_PAIRS = 10**7, 10**8


def check_size(kind: str, params: dict, where: str | None = None) -> None:
    """Refuse, before generate_graph builds it, a graph of kind above either
    cap, naming params as `where`; values the generator refuses pass."""
    names = [name for name in GENERATORS[kind][0] if name != "p"]
    values = [params.get(name) for name in names]
    if not all(type(value) is int for value in values):
        return
    nodes = math.prod(values) + (kind == "star")
    pairs = nodes * (nodes - 1) // 2 if kind in ("complete", "erdos_renyi") else 0
    where = where or ", ".join(f"{name} = {params[name]}" for name in names)
    for count, what, cap in ((nodes, "nodes", MAX_NODES),
                             (pairs, "node pairs", MAX_PAIRS)):
        if count > cap:
            raise ConfigError(f"{where} gives {count} {what}; at most {cap}")


def generate_graph(kind: str, seed: int = 0, **params) -> Graph:
    """Dispatch to a generator by kind. Identical (kind, params, seed) gives identical edges."""
    names, build, _ = GENERATORS[known_kind(kind, GENERATORS, "graph kind")]
    check_size(kind, params)
    return build(seed, *(params.get(name) for name in names))


def sized_params(kind: str, size: int) -> dict:
    """Kind-specific parameters that realize a sweep size of `size` nodes.
    Every kind realizes every positive size, and no other."""
    realize = GENERATORS[known_kind(kind, GENERATORS, "graph kind")][2]
    return realize(_require_positive("sweep size", size))


def safe_zone(g: Graph, faulty: Iterable[int], i: int) -> frozenset[int]:
    """Nodes at graph distance strictly greater than i >= 0 from every
    faulty node: V less the ball of radius i around the faulty set, grown
    one frontier at a time. With an empty faulty set this is all of V."""
    frontier = ball = set(faulty)
    for s in ball:
        if not 0 <= s < g.n:
            raise ConfigError(f"source node {s} out of range for n={g.n}")
    adjacency = g.adjacency
    for _ in range(i):
        frontier = {v for u in frontier for v in adjacency[u]}.difference(ball)
        ball |= frontier
    return frozenset(range(g.n)).difference(ball)


def write_graph(g: Graph, fh: IO[str]) -> None:
    """Plain-text format: first line "n m", then one "u v" line per edge,
    u < v, in ascending (u, v) order."""
    adjacency = g.adjacency
    fh.write(f"{g.n} {sum(map(len, adjacency)) // 2}\n")
    for u, row in enumerate(adjacency):
        for v in row:
            if v > u:
                fh.write(f"{u} {v}\n")


def read_graph(fh: IO[str], max_nodes: int = MAX_NODES) -> Graph:
    """Read an "n m" header, refused above max_nodes nodes, then m edge lines."""
    header = fh.readline().split()
    if len(header) != 2:
        raise ConfigError("line 1: graph file must start with a 'n m' line")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise ConfigError(
            f"line 1: node and edge counts must be integers, "
            f"got {' '.join(header)!r}") from None
    if n < 0:
        raise ConfigError(f"line 1: node count must be nonnegative, got {n}")
    if n > max_nodes:
        raise ConfigError(f"line 1: at most {max_nodes} nodes, got {n}")
    if m < 0:
        raise ConfigError(f"line 1: edge count must be nonnegative, got {m}")
    edges = []
    #: each edge, in either orientation -> the line that lists it
    seen: dict[tuple[int, int], int] = {}
    for lineno in range(2, m + 2):
        parts = fh.readline().split()
        if len(parts) != 2:
            raise ConfigError(
                f"line {lineno}: each edge line must contain exactly 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ConfigError(
                f"line {lineno}: edge endpoints must be integers, "
                f"got {' '.join(parts)!r}") from None
        _check_edge(n, u, v, f"line {lineno}: ")
        first = seen.setdefault((min(u, v), max(u, v)), lineno)
        if first != lineno:
            raise ConfigError(
                f"line {lineno}: edge {u} {v} repeats the edge on line {first}")
        edges.append((u, v))
    for lineno, line in enumerate(fh, start=m + 2):
        if line.strip():
            raise ConfigError(f"line {lineno}: the header declares only {m} edges")
    return make_graph(n, edges)
