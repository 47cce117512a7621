"""Execution core: configurations, transitions, round accounting, seeded randomness.

Semantics fixed here, shared by every run:
  - a daemon picks a nonempty set of activable nodes, and each executes the
    one rule the activable map holds for it: the guards of each rule set are
    mutually exclusive, and a faulty node's entry is `BYZ`, its strategy;
  - guards are evaluated against the pre-transition configuration, and every
    mover's next state is computed before any is written (simultaneous
    activation);
  - one Bernoulli draw per executed probabilistic rule, consumed in ascending
    node order within a transition, so a seed fully determines an execution;
  - every guard reads only s[u], x[u] against deg u, and whether some
    neighbor of u has s = 1, so a run scans every guard once, for its
    initial configuration, and after each transition re-evaluates only the
    guards of the nodes whose s, x or up > 0 changed (`Activity`): a mover
    whose s or x changed, and a neighbor of a flipped mover whose count of
    up neighbors crossed zero; nothing for a mover that kept its state;
  - `Activity.transition` returns the movers' rules and draws as the
    algorithm's `step` built them, and `Activity.transitions` is the one
    count of transitions: the trace writer and the color ledger number
    theirs from it.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import compress
from typing import IO, Iterable, Sequence

from .errors import EngineError, Record, ScriptError, known_kind
from .graphs import Graph

_MASK64 = (1 << 64) - 1


#: the rules of both algorithms, plus the faulty-node marker, as traces and
#: scripts name them; code compares rules with `is`, so a name read from
#: outside is mapped to its constant first
REFRESH, TRY_CANDIDACY, WITHDRAW = "refresh", "candidacy?", "withdrawal"
CANDIDACY, TRY_WITHDRAW, BYZ = "candidacy", "withdrawal?", "byz"
RULES = (REFRESH, TRY_CANDIDACY, WITHDRAW, CANDIDACY, TRY_WITHDRAW, BYZ)


class Configuration(Record, frozen=True):
    """Per-node local state: s flags, and x counters when the algorithm uses them.

    Values are unconstrained on purpose: runs must recover from anything.
    """

    s: tuple[bool, ...]
    x: tuple[int, ...] | None = None


def derive_seed(master_seed: int, index: int) -> int:
    """Fixed splitting rule (splitmix64 finalizer) giving one stream per trial."""
    z = (master_seed + 0x9E3779B97F4A7C15 * (index + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class RngStream(random.Random):
    """Seeded random stream; identical seed means identical draw sequence.
    It must not define `random` or `getrandbits`: `random.Random` would then
    switch `randint` and `choice` to another `_randbelow`, changing draws."""

    def bernoulli(self, p: float) -> int:
        """1 with probability p, else 0."""
        return 1 if self.random() < p else 0


class FixedDraws(RngStream):
    """The stream of a scripted trial: `forced` queues the outcomes of its
    next Bernoulli draws, in the order they are made. A queued None, like
    every draw other than a Bernoulli, comes from the stream itself."""

    def __init__(self, seed=None):
        super().__init__(seed)
        self.forced: deque[int | None] = deque()

    def bernoulli(self, p: float) -> int:
        if not self.forced:
            raise ScriptError("scripted draw sequence exhausted")
        draw = self.forced.popleft()
        return super().bernoulli(p) if draw is None else draw


def _counted(g: Graph, cfg: Configuration) -> tuple[
        list, list[int] | None, list[int], list[int]]:
    """cfg as the lists every guard reads: (s, x, deg, up), where up[u] is
    the number of u's neighbors with s = 1."""
    s = list(map(bool, cfg.s))
    adjacency = g.adjacency
    up = [0] * len(s)
    for u in compress(range(len(s)), s):
        for v in adjacency[u]:
            up[v] += 1
    return (s, None if cfg.x is None else list(cfg.x),
            list(map(len, adjacency)), up)


def _scan(algo, s, x, deg, up, byz: frozenset[int]) -> dict[int, str]:
    guard = algo.enabled_rules
    out = {}
    for u in range(len(s)):
        if u in byz:
            out[u] = BYZ
        else:
            rule = guard(s, x, deg, up, u)
            if rule is not None:
                out[u] = rule
    return out


def activable_map(algo, g: Graph, cfg: Configuration,
                  byz: frozenset[int] = frozenset()) -> dict[int, str]:
    """The enabled rule of each activable node; a faulty node is always
    activable, with `BYZ`.

    A full scan of every guard: a run scans its initial configuration once
    and then keeps the map current itself (`Activity`).
    """
    return _scan(algo, *_counted(g, cfg), byz)


def validate_move_set(g: Graph, nodes: Sequence[int],
                      activable: dict[int, str]) -> None:
    """Check a daemon's choice against the activable map of the current
    configuration: a nonempty list of activable nodes in strictly ascending
    order, as every daemon returns them; the stepper does not sort. Each
    chosen node executes the rule the map holds for it, so that rule is
    enabled, a faulty node runs its strategy and an honest node an
    algorithm rule, whichever nodes are chosen.

    The order is checked first and then membership, so an order violation
    anywhere in the list is reported before any node that is not activable.
    Violations are engine errors: daemons must only emit valid sets. The
    rule sets' one `step` makes the same checks as it runs and, on a list
    that fails one, calls this function, which words every move-set error.
    """
    if not nodes:
        raise EngineError("move set must be nonempty")
    for prev, u in zip(nodes, nodes[1:]):
        if u < prev:
            raise EngineError("move set is not sorted by node")
        if u == prev:
            raise EngineError(f"move set targets node {u} twice")
    for u in nodes:
        if u not in activable:
            if not 0 <= u < g.n:
                raise EngineError(f"move on node {u} outside graph of size {g.n}")
            raise EngineError(f"move on node {u}, which is not activable")


def is_stable(algo, g: Graph, cfg: Configuration) -> bool:
    """True iff no node is activable, every node counted as honest."""
    return not activable_map(algo, g, cfg)


class RoundTracker:
    """Round accounting: a round ends once every node was activated at least
    once or was non-activable in some configuration of the round. Faulty nodes
    are never non-activable, so only activation satisfies them.

    Nodes that are not activable when a round opens are satisfied at once, so
    only the unsatisfied nodes of the round are kept: the activable set at its
    first configuration, shrunk by every mover and every node that leaves the
    activable set. The round ends when none is left.
    """

    def __init__(self, activable: Iterable[int]):
        self.rounds_completed = 0
        self.transitions_in_round = 0
        self._unsatisfied = set(activable)

    def advance(self, moved: Iterable[int], left: Iterable[int],
                activable_after: Iterable[int]) -> bool:
        """Account one transition; True when it closes the current round.

        `left` holds the nodes that were activable before the transition and
        are not after it; `activable_after` is read only to open the next
        round.
        """
        self.transitions_in_round += 1
        self._unsatisfied.difference_update(moved)
        self._unsatisfied.difference_update(left)
        if self._unsatisfied:
            return False
        self.rounds_completed += 1
        self.transitions_in_round = 0
        self._unsatisfied = set(activable_after)
        return True

    @property
    def rounds_elapsed(self) -> int:
        """Completed rounds, counting a started partial round as one."""
        return self.rounds_completed + (1 if self.transitions_in_round else 0)


class Activity:
    """The transition stepper every run drives. It owns the run's state as
    plain lists: `s`, `x` (None when the algorithm keeps none), `deg`, and
    `up`, where up[u] is the number of u's neighbors with s = 1. It also
    owns the activable map, which holds the one rule each activable node
    would execute, and the round tracker. `flags` is the activable set as a
    bytearray, flags[u] = 1 iff u is in the map, which the singleton daemon
    searches at C level. u's age, the transitions it has spent activable
    without being activated, is kept as a stamp: `transitions` counts the
    transitions so far and since[u] is the one after which u last moved or
    became activable, so an activable u has age transitions - since[u],
    >= a iff since[u] <= transitions - a; off the map its age is 0.
    The algorithm's `step`, strategies and daemons read the state through
    the stepper's own `.s` and `.x`; a `Configuration` is built only on
    request (`snapshot`). `strategies` maps each faulty node to its
    behavior.

    Every guard reads only s[u], x[u], deg[u] and whether up[u] > 0. After
    one scan of every guard for the initial configuration, `transition`
    adjusts `up` over N(u) for each mover u whose s flips, and re-evaluates
    guards only on the nodes whose s, x or up > 0 changed (`touched`): a
    mover whose s or x changed, and a neighbor v of a flipped mover whose
    up[v] crossed zero (0 -> 1 as the mover rises, 1 -> 0 as it falls).
    Keeping `up` current costs the sum of deg u over the flipped movers;
    guard evaluations cost O(|movers| + zero crossings), however large the
    graph is; a move that changes nothing evaluates no guard.
    """

    def __init__(self, algo, g: Graph, cfg: Configuration,
                 strategies: dict | None = None):
        self._algo = algo
        self.g = g
        self._strategies = strategies or {}
        self._byz = frozenset(self._strategies)
        self.s, self.x, self.deg, self.up = _counted(g, cfg)
        self.activable = _scan(algo, self.s, self.x, self.deg, self.up, self._byz)
        self.flags = flags = bytearray(g.n)
        for u in self.activable:
            flags[u] = 1
        #: the nodes whose s, x or up > 0 the last transition changed, whose
        #: guards it re-evaluated
        self.touched: set[int] = set()
        self.tracker = RoundTracker(self.activable)
        self.transitions = 0
        self.since = [0] * g.n

    def oldest_age(self) -> int:
        """The largest age; only activable nodes can have a nonzero one."""
        return self.transitions - min(map(self.since.__getitem__, self.activable),
                                      default=self.transitions)

    def snapshot(self) -> Configuration:
        """The current state as an immutable configuration: O(n)."""
        return Configuration(tuple(self.s),
                             None if self.x is None else tuple(self.x))

    def transition(self, nodes: Sequence[int], rng) -> tuple[
            list[str], list[int | None], bool]:
        """Activate the chosen nodes, listed in ascending order, on the
        current state and account the transition. Every node's rule is read
        from the activable map and every next state computed before any
        state is written.

        Returns the movers' rules and draws, in the order of `nodes`, as
        the algorithm's `step` built them, and whether the transition closed
        a round; the new state is the stepper's own, and `transitions`
        numbers the transition. The whole transition is one `step` call on
        the algorithm, which checks the list, draws the Bernoullis and runs
        the faulty nodes' strategies.
        """
        g, activable = self.g, self.activable
        # every next state is computed against the current one before any
        # is written: simultaneous activation
        rules, draws, new_s, new_x = self._algo.step(
            g, self, nodes, activable, self._strategies, rng)
        s, x, deg, up, adjacency = self.s, self.x, self.deg, self.up, g.adjacency
        self.transitions = now = self.transitions + 1
        since = self.since

        # a guard input changed at a mover whose s or x changed, and at a
        # neighbor of a flipped mover whose up crossed zero: guards read up
        # only as "some neighbor is up". A mover that changed nothing keeps
        # its guard, unless a flipped neighbor already touched it. Every
        # mover has age 0 after the transition
        self.touched = touched = set()
        for node, ns, nx in zip(nodes, new_s, new_x):
            since[node] = now
            if ns != s[node]:
                s[node] = ns
                touched.add(node)
                if ns:
                    for v in adjacency[node]:
                        if not up[v]:
                            touched.add(v)
                        up[v] += 1
                else:
                    for v in adjacency[node]:
                        up[v] -= 1
                        if not up[v]:
                            touched.add(v)
            if nx is not None and nx != x[node]:
                x[node] = nx
                touched.add(node)

        # only the touched nodes can change activability, and a flag changes
        # only where a node enters or leaves the map; an entering node has
        # age 0
        guard, byz, flags = self._algo.enabled_rules, self._byz, self.flags
        left = []
        for u in touched:
            if u in byz:
                continue
            rule = guard(s, x, deg, up, u)
            if rule is not None:
                if u not in activable:
                    since[u] = now
                    flags[u] = 1
                activable[u] = rule
            elif activable.pop(u, None) is not None:
                left.append(u)
                flags[u] = 0
        ended = self.tracker.advance(nodes, left, activable)
        return rules, draws, ended


_ONE, _ZERO = b"10"

#: rule -> draw -> the ":rule:draw" end of a trace entry
_ENTRY_SUFFIX = {rule: {draw: f":{rule}:{'-' if draw is None else draw}"
                        for draw in (None, 0, 1)}
                 for rule in RULES}


class TraceWriter:
    """The trace encoder: one line per transition with its index, its
    node:rule:draw entries and the s-vector as 0/1, plus the comma-separated
    x-vector when the algorithm keeps one. Line 0 carries the initial
    configuration with a '-' move field.

    A transition writes state only at its movers, so the encoded s and x are
    kept between lines and only the movers' entries are re-encoded. The
    x values are kept as numbers beside their text, so a mover's x is
    turned into text only when it changed, and the comma-joined x text is
    joined again only on such a line: a line costs O(|movers|) plus a copy
    of the s bytes, and one join of the kept x text when an x changed.
    A mover's entry is two table reads joined: its node's label from
    `labels`, each node's number as text, and its ":rule:draw" suffix from
    a table keyed by rule, then by draw, so an entry converts no number
    and builds no key. `labels` is only read, so a spec's trials share one;
    without it the writer builds its own.
    `record` takes the movers and their rules and draws, as
    `Activity.transition` returns them, and reads the state from `state`,
    the run's live `Activity`: its `.s` and `.x`, and `.transitions`, which
    numbers the line.
    """

    def __init__(self, fh: IO[str], initial: Configuration,
                 labels: Sequence[str] | None = None):
        self._fh = fh
        self._labels = (list(map(str, range(len(initial.s))))
                        if labels is None else labels)
        self._s = bytearray(_ONE if v else _ZERO for v in initial.s)
        self._x_num = None if initial.x is None else list(initial.x)
        self._x = None if initial.x is None else list(map(str, initial.x))
        self._x_line = None if self._x is None else self._join_x()
        fh.write(f"0 - {self._fields()}\n")

    def record(self, nodes: Sequence[int], rules: Sequence[str],
               draws: Sequence[int | None], state) -> None:
        s, x, s_text = state.s, state.x, self._s
        x_num, x_text, labels = self._x_num, self._x, self._labels
        one, zero, suffix = _ONE, _ZERO, _ENTRY_SUFFIX
        entries = []
        x_changed = False
        for node, rule, d in zip(nodes, rules, draws):
            s_text[node] = one if s[node] else zero
            if x_num is not None and x[node] != x_num[node]:
                x_num[node] = v = x[node]
                x_text[node] = str(v)
                x_changed = True
            entries.append(labels[node] + suffix[rule][d])
        if x_changed:
            self._x_line = self._join_x()
        self._fh.write(
            f"{state.transitions} {','.join(entries)} {self._fields()}\n")

    def _join_x(self) -> str:
        return ",".join(self._x)

    def _fields(self) -> str:
        s_text = self._s.decode("ascii")
        return s_text if self._x is None else f"{s_text} {self._x_line}"


def _coins(g: Graph, rng) -> tuple[bool, ...]:
    return tuple(rng.random() < 0.5 for _ in range(g.n))


def _degrees(g: Graph, rng) -> tuple[int, ...]:
    return tuple(g.degree(u) for u in range(g.n))


def _uniform_x(g: Graph, rng) -> tuple[int, ...]:
    """One `rng.randint(0, n)` per node, drawn as `randint` draws it:
    getrandbits((n + 1).bit_length()) until the value is at most n. The
    values and the stream position after them are `randint`'s, without its
    three Python frames per draw."""
    n = g.n
    k = (n + 1).bit_length()
    getrandbits = rng.getrandbits
    out = []
    for _ in range(n):
        v = getrandbits(k)
        while v > n:
            v = getrandbits(k)
        out.append(v)
    return tuple(out)


#: preset -> (s, x), each a function of (graph, rng); x is drawn after s,
#: and only for algorithms that keep it
_PRESETS = {
    "random": (_coins, _uniform_x),
    "all_bot": (lambda g, rng: (False,) * g.n, _degrees),
    "all_top": (lambda g, rng: (True,) * g.n, _degrees),
    "adversarial_x": (_coins, lambda g, rng: (g.n,) * g.n),
}
INITIAL_PRESETS = tuple(_PRESETS)


def initial_configuration(g: Graph, uses_x: bool, preset: str, rng) -> Configuration:
    """Starting configuration per preset.

    "random" covers the arbitrary-start requirement: s uniform per node and
    x uniform over [0, n]. The fixed presets give reproducible corner starts;
    all_bot/all_top use degree-correct x, adversarial_x plants x = n everywhere.
    """
    make_s, make_x = _PRESETS[known_kind(preset, _PRESETS, "initial preset")]
    s = make_s(g, rng)
    return Configuration(s, make_x(g, rng) if uses_x else None)
