"""Immutable graphs, deterministic generators, and distance strata around faulty nodes."""

from __future__ import annotations

import math
import random
import re
from collections import deque
from dataclasses import dataclass
from typing import IO, Iterable

from .errors import ConfigError, known_kind

#: Distance value used for nodes that no source can reach.
UNREACHABLE = math.inf

#: 2**-53, the scale of `random.random()`'s 53-bit integer
_TWO_POW_MINUS_53 = 1.0 / 9007199254740992.0


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph over dense node indices 0..n-1.

    Immutable after construction; safe to share between concurrent trials.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    adjacency: tuple[tuple[int, ...], ...]
    max_degree: int

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a validated Graph from an edge list.

    Self-loops are rejected, duplicates collapse, endpoints must lie in [0, n).
    """
    if n < 0:
        raise ConfigError(f"node count must be nonnegative, got {n}")
    normalized = set()
    for u, v in edges:
        if u == v:
            raise ConfigError(f"self-loop on node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ConfigError(f"edge ({u},{v}) out of range for n={n}")
        normalized.add((min(u, v), max(u, v)))
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in normalized:
        adj[u].append(v)
        adj[v].append(u)
    adjacency = tuple(tuple(sorted(nb)) for nb in adj)
    max_degree = max((len(nb) for nb in adjacency), default=0)
    return Graph(n, frozenset(normalized), adjacency, max_degree)


def _require_positive(name: str, value: int) -> int:
    if not isinstance(value, int) or value < 1:
        raise ConfigError(f"{name} must be a positive integer, got {value!r}")
    return value


def ring(n: int) -> Graph:
    _require_positive("n", n)
    if n == 1:
        return make_graph(1, [])
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    _require_positive("n", n)
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def star(leaves: int) -> Graph:
    """Star with center 0 and `leaves` outer nodes 1..leaves; without leaves,
    the center alone."""
    if not isinstance(leaves, int) or leaves < 0:
        raise ConfigError(f"leaves must be a nonnegative integer, got {leaves!r}")
    return make_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete(n: int) -> Graph:
    _require_positive("n", n)
    return make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def grid(rows: int, cols: int) -> Graph:
    """Rectangular grid, nodes numbered row-major."""
    _require_positive("rows", rows)
    _require_positive("cols", cols)
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                edges.append((u, u + 1))
            if r + 1 < rows:
                edges.append((u, u + cols))
    return make_graph(rows * cols, edges)


def erdos_renyi(n: int, p: float, seed: int = 0) -> Graph:
    """G(n, p): every pair drawn independently. Connectedness is not guaranteed.

    The edges are those of `random.Random(seed).random() < p` drawn for each
    pair (i, j), i < j, in row-major order, but a row's draws are read in
    bulk. `random()` consumes two Mersenne Twister words w0, w1 and returns
    ((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53, which is at least
    (w0 >> 24) / 256. One `getrandbits(64 * m)` call yields the same 2m words
    for a row of m pairs; only the pairs whose w0 top byte is at most
    int(p * 256), found by a byte-class regex, can fall below p, and only
    those are tested exactly. One row is held at a time.
    """
    _require_positive("n", n)
    if not (0.0 <= p <= 1.0):
        raise ConfigError(f"edge probability must be in [0,1], got {p}")
    rng = random.Random(seed)
    top = min(int(p * 256), 255)
    candidates = re.compile(rb"[\x00-" + re.escape(bytes((top,))) + rb"]")
    edges = []
    for i in range(n - 1):
        m = n - 1 - i
        words = rng.getrandbits(64 * m).to_bytes(8 * m, "little")
        # byte 8k + 3 is the top byte of pair k's first word
        for match in candidates.finditer(words[3::8]):
            k = match.start()
            w0 = int.from_bytes(words[8 * k:8 * k + 4], "little")
            w1 = int.from_bytes(words[8 * k + 4:8 * k + 8], "little")
            if ((w0 >> 5) * 67108864.0 + (w1 >> 6)) * _TWO_POW_MINUS_53 < p:
                edges.append((i, i + 1 + k))
    return make_graph(n, edges)


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


def generate_graph(kind: str, seed: int = 0, **params) -> Graph:
    """Dispatch to a generator by kind. Identical (kind, params, seed) gives identical edges."""
    names, build, _ = GENERATORS[known_kind(kind, GENERATORS, "graph kind")]
    return build(seed, *(params.get(name) for name in names))


def sized_params(kind: str, size: int) -> dict:
    """Kind-specific parameters that realize a sweep size of `size` nodes.
    Every kind realizes every positive size, and no other."""
    realize = GENERATORS[known_kind(kind, GENERATORS, "graph kind")][2]
    return realize(_require_positive("sweep size", size))


def distances_from(g: Graph, sources: Iterable[int]) -> list[float]:
    """Multi-source BFS distance per node; UNREACHABLE where no source reaches.

    An empty source set makes every node unreachable.
    """
    dist: list[float] = [UNREACHABLE] * g.n
    queue: deque[int] = deque()
    for s in sources:
        if not (0 <= s < g.n):
            raise ConfigError(f"source node {s} out of range for n={g.n}")
        if dist[s] != 0:
            dist[s] = 0
            queue.append(s)
    while queue:
        u = queue.popleft()
        for v in g.adjacency[u]:
            if dist[v] == UNREACHABLE:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def safe_zone(g: Graph, faulty: Iterable[int], i: int) -> frozenset[int]:
    """Nodes at graph distance strictly greater than i from every faulty node.

    With an empty faulty set this is all of V, for every i.
    """
    dist = distances_from(g, faulty)
    return frozenset(u for u in range(g.n) if dist[u] > i)


def write_graph(g: Graph, fh: IO[str]) -> None:
    """Plain-text format: first line "n m", then one "u v" line per edge."""
    fh.write(f"{g.n} {len(g.edges)}\n")
    for u, v in sorted(g.edges):
        fh.write(f"{u} {v}\n")


def read_graph(fh: IO[str]) -> Graph:
    header = fh.readline().split()
    if len(header) != 2:
        raise ConfigError("graph file must start with a 'n m' line")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ConfigError(f"bad graph header: {exc}") from exc
    edges = []
    for lineno in range(2, m + 2):
        parts = fh.readline().split()
        if len(parts) != 2:
            raise ConfigError(
                f"line {lineno}: each edge line must contain exactly 'u v'")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ConfigError(
                f"line {lineno}: edge endpoints must be integers, "
                f"got {' '.join(parts)!r}") from None
    return make_graph(n, edges)
