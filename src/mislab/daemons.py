"""Scheduler policies: which activable nodes fire in the next transition.

A daemon returns nodes, not moves: each chosen node executes the one rule
the activable map holds for it, and the stepper reads that rule itself. A
daemon reads the activable nodes from the map, or, for the singleton kind,
from the stepper's activable flags (`Activity.flags`), one byte per node.

The worst-case adversary is a Markov decision process over configurations,
solvable exactly only for small n; the adversarial kinds here are
heuristics, and bounds that hold against any daemon hold against them in
particular. Fair kinds carry a bound F: no node stays continuously
activable for more than F consecutive transitions without being activated.
"""

from __future__ import annotations

from typing import Sequence

from .algorithms import ALGORITHMS
from .engine import Activity, FairnessAges, FixedDraws, RngStream, Rule
from .errors import ConfigError, EngineError, ScriptError, known_kind
from .graphs import Graph


class Daemon:
    """Base policy. fair_bound is F for fair kinds, None for adversarial ones.
    `stream` is the type of a trial's random stream, made from its seed."""

    fair_bound: int | None = None
    stream = RngStream

    def select(self, g: Graph, cfg: Activity, activable: dict[int, Rule],
               ages: FairnessAges, rng) -> list[int]:
        """The nodes to activate in the next transition: a nonempty list of
        keys of `activable`, in strictly ascending order, which the stepper
        takes as it is and rejects otherwise. `cfg` is the run's live
        stepper (its `.s`, `.x` and `.flags`), `rng` the trial's stream."""
        raise NotImplementedError


class SynchronousDaemon(Daemon):
    """Every activable node fires, every transition."""

    fair_bound = 1

    def select(self, g, cfg, activable, ages, rng):
        return sorted(activable)


class AgedFairDaemon(Daemon):
    """Random subsets, but any node whose age reaches F-1 is forcibly included."""

    def __init__(self, fairness: int):
        if fairness < 1:
            raise ConfigError(f"fairness bound must be >= 1, got {fairness}")
        self.fair_bound = fairness

    def select(self, g, cfg, activable, ages, rng):
        # an activable u has age >= F - 1 iff since[u] <= transitions - (F - 1);
        # an overdue node draws nothing
        since, due = ages.since, ages.transitions - (self.fair_bound - 1)
        nodes = sorted(activable)
        chosen = [u for u in nodes if since[u] <= due or rng.random() < 0.5]
        if not chosen:
            chosen = [rng.choice(nodes)]
        return chosen


class RandomSubsetDaemon(Daemon):
    """Each activable node independently with the given density; redrawn if empty."""

    def __init__(self, density: float = 0.5):
        if not (0.0 < density <= 1.0):
            raise ConfigError(f"density must be in (0,1], got {density}")
        self.density = density

    def select(self, g, cfg, activable, ages, rng):
        nodes = sorted(activable)
        for _ in range(10_000):
            chosen = [u for u in nodes if rng.random() < self.density]
            if chosen:
                return chosen
        raise ConfigError(f"random_subset density {self.density} chose no node "
                          "in 10000 draws; raise the density")


class SingletonDaemon(Daemon):
    """One node per transition, round-robin over indices, skipping inactive
    ones: the first activable node at or after the cursor, wrapping to the
    first one before it. The stepper's activable flags are searched from
    the cursor at C level (`bytearray.find`), so a pick costs no Python
    step per skipped node."""

    def __init__(self):
        self._cursor = 0

    def select(self, g, cfg, activable, ages, rng):
        flags, cursor = cfg.flags, self._cursor
        u = flags.find(1, cursor)
        if u < 0:
            u = flags.find(1, 0, cursor)
            if u < 0:
                raise EngineError("singleton daemon called with nothing activable")
        self._cursor = u + 1
        return [u]


class ConflictGreedyDaemon(Daemon):
    """Prefers adjacent activable nodes with equal s-values, to force candidacy
    collisions and simultaneous withdrawals, then pads randomly."""

    def select(self, g, cfg, activable, ages, rng):
        # a core node draws nothing, the others draw in ascending order
        s, adjacency, nodes = cfg.s, g.adjacency, sorted(activable)
        chosen = [u for u in nodes
                  if any(v in activable and s[v] == s[u] for v in adjacency[u])
                  or rng.random() < 0.5]
        if not chosen:
            chosen = [rng.choice(nodes)]
        return chosen


#: the rules whose command draws a Bernoulli, one per algorithm
_DRAWING = frozenset(algo.random_rule for algo in ALGORITHMS.values())


class ScriptedDaemon(Daemon):
    """Replays an explicit list of move sets, each a list of (node, rule,
    draw) entries; fails if a scripted rule is not the one the activable map
    holds for its node. An entry listed twice in one set counts once. The
    trial's stream is a `FixedDraws`, fed each set's draws in ascending node
    order; a None draw comes from the stream.
    """

    stream = FixedDraws

    def __init__(self, script: Sequence[Sequence[tuple[int, Rule, int | None]]] | None):
        if script is None:
            raise ConfigError("scripted daemon needs a script")
        self._script = []
        for step in script:
            entries = sorted(dict.fromkeys(step), key=lambda e: e[0])
            self._script.append((
                [(node, rule) for node, rule, _ in entries],
                [d for _, rule, d in entries if rule in _DRAWING]))
        self._next = 0

    def select(self, g, cfg, activable, ages, rng):
        if self._next >= len(self._script):
            raise ScriptError("scripted daemon ran out of transitions")
        moves, draws = self._script[self._next]
        self._next += 1
        for node, rule in moves:
            if activable.get(node) is not rule:
                raise ScriptError(
                    f"scripted move ({node},{rule.value}) not enabled "
                    f"at transition {self._next}")
        if not moves:
            raise ScriptError(f"scripted transition {self._next} is empty")
        rng.forced.extend(draws)
        return [node for node, _ in moves]


#: kind -> factory (n, fairness, density, script) of a fresh daemon
DAEMONS = {
    "synchronous": lambda n, fairness, density, script: SynchronousDaemon(),
    "aged_fair": lambda n, fairness, density, script: AgedFairDaemon(
        fairness if fairness is not None else max(n, 1)),
    "random_subset": lambda n, fairness, density, script: RandomSubsetDaemon(density),
    "singleton": lambda n, fairness, density, script: SingletonDaemon(),
    "conflict_greedy": lambda n, fairness, density, script: ConflictGreedyDaemon(),
    "scripted": lambda n, fairness, density, script: ScriptedDaemon(script),
}
DAEMON_KINDS = tuple(DAEMONS)


def make_daemon(kind: str, n: int, *, fairness: int | None = None,
                density: float = 0.5, script=None) -> Daemon:
    """Fresh policy instance for one trial. fairness defaults to n, and to
    1 on the empty graph."""
    return DAEMONS[known_kind(kind, DAEMONS, "daemon kind")](
        n, fairness, density, script)
