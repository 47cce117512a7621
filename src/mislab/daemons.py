"""Scheduler policies: which activable nodes fire in the next transition.

The genuinely worst-case adversary is not computable, so the adversarial
kinds here are heuristics; bounds that hold against any daemon hold against
them in particular. Fair kinds carry a bound F: no node stays continuously
activable for more than F consecutive transitions without being activated.
"""

from __future__ import annotations

from typing import Sequence

from .engine import Configuration, FairnessAges, Move, Rule
from .errors import ConfigError, EngineError, ScriptError, known_kind
from .graphs import Graph


def _moves_for(nodes, activable) -> list[Move]:
    """The first enabled rule of each node, in the order given."""
    return [Move(u, activable[u][0]) for u in nodes]


class Daemon:
    """Base policy. fair_bound is F for fair kinds, None for adversarial ones."""

    fair_bound: int | None = None

    def select(self, g: Graph, cfg: Configuration,
               activable: dict[int, tuple[Rule, ...]],
               ages: FairnessAges, rng) -> list[Move]:
        """The moves of the next transition, at most one per node, as a list
        in ascending node order: the stepper takes it as it is and rejects
        an unsorted one. `cfg` is the current state (anything with `.s`)."""
        raise NotImplementedError


class SynchronousDaemon(Daemon):
    """Every activable node fires, every transition."""

    fair_bound = 1

    def select(self, g, cfg, activable, ages, rng):
        return _moves_for(sorted(activable), activable)


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
        chosen = [u for u in sorted(activable)
                  if since[u] <= due or rng.random() < 0.5]
        if not chosen:
            chosen = [rng.choice(sorted(activable))]
        return _moves_for(chosen, activable)


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
                return _moves_for(chosen, activable)
        raise EngineError("random subset selection failed to produce a node")


class SingletonDaemon(Daemon):
    """One node per transition, round-robin over indices, skipping inactive ones."""

    def __init__(self):
        self._cursor = 0

    def select(self, g, cfg, activable, ages, rng):
        for offset in range(g.n):
            u = (self._cursor + offset) % g.n
            if u in activable:
                self._cursor = (u + 1) % g.n
                return _moves_for([u], activable)
        raise EngineError("singleton daemon called with nothing activable")


class ConflictGreedyDaemon(Daemon):
    """Prefers adjacent activable nodes with equal s-values, to force candidacy
    collisions and simultaneous withdrawals, then pads randomly."""

    def select(self, g, cfg, activable, ages, rng):
        s = cfg.s
        core = [u for u in sorted(activable)
                if any(v in activable and s[v] == s[u] for v in g.adjacency[u])]
        in_core = set(core)
        chosen = list(core)
        for u in sorted(activable):
            if u not in in_core and rng.random() < 0.5:
                chosen.append(u)
        if not chosen:
            chosen = [rng.choice(sorted(activable))]
        return _moves_for(sorted(chosen), activable)


class ScriptedDaemon(Daemon):
    """Replays an explicit list of move sets; fails if a move is not enabled.
    A move listed twice in one set counts once."""

    def __init__(self, script: Sequence[Sequence[tuple[int, Rule]]] | None):
        if script is None:
            raise ConfigError("scripted daemon needs a script")
        self._script = [list(step) for step in script]
        self._next = 0

    def select(self, g, cfg, activable, ages, rng):
        if self._next >= len(self._script):
            raise ScriptError("scripted daemon ran out of transitions")
        step = self._script[self._next]
        self._next += 1
        moves = set()
        for node, rule in step:
            if node not in activable or rule not in activable[node]:
                raise ScriptError(
                    f"scripted move ({node},{rule.value}) not enabled "
                    f"at transition {self._next}")
            moves.add(Move(node, rule))
        if not moves:
            raise ScriptError(f"scripted transition {self._next} is empty")
        return sorted(moves, key=lambda m: m.node)


#: kind -> factory (n, fairness, density, script) of a fresh daemon
DAEMONS = {
    "synchronous": lambda n, fairness, density, script: SynchronousDaemon(),
    "aged_fair": lambda n, fairness, density, script: AgedFairDaemon(
        fairness if fairness is not None else n),
    "random_subset": lambda n, fairness, density, script: RandomSubsetDaemon(density),
    "singleton": lambda n, fairness, density, script: SingletonDaemon(),
    "conflict_greedy": lambda n, fairness, density, script: ConflictGreedyDaemon(),
    "scripted": lambda n, fairness, density, script: ScriptedDaemon(script),
}
DAEMON_KINDS = tuple(DAEMONS)


def make_daemon(kind: str, n: int, *, fairness: int | None = None,
                density: float = 0.5, script=None) -> Daemon:
    """Fresh policy instance for one trial. fairness defaults to n."""
    return DAEMONS[known_kind(kind, DAEMONS, "daemon kind")](
        n, fairness, density, script)
