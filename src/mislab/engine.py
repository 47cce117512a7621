"""Execution core: configurations, transitions, round accounting, seeded randomness.

Semantics fixed here, shared by every run:
  - guards are evaluated against the pre-transition configuration, and every
    mover's next state is computed before any is written (simultaneous
    activation);
  - one Bernoulli draw per executed probabilistic rule, consumed in ascending
    node order within a transition, so a seed fully determines an execution;
  - every guard reads only s[u], x[u] against deg u, and the number of u's
    neighbors with s = 1, so a move at u can change guards only on the closed
    neighborhood N[u]: a run scans every guard once, for its initial
    configuration, and after each transition re-evaluates N[movers] only
    (`Activity`).
"""

from __future__ import annotations

import enum
import random
from collections import abc, deque
from dataclasses import dataclass, field
from typing import IO, Iterable, NamedTuple, Sequence

from .errors import ConfigError, EngineError, ScriptError, known_kind
from .graphs import Graph

_MASK64 = (1 << 64) - 1


class Rule(enum.Enum):
    """Rule identifiers across both algorithms, plus the faulty-node marker."""

    REFRESH = "refresh"
    TRY_CANDIDACY = "candidacy?"
    WITHDRAW = "withdrawal"
    CANDIDACY = "candidacy"
    TRY_WITHDRAW = "withdrawal?"
    BYZ = "byz"


def rule_from_name(name: str) -> Rule:
    try:
        return Rule(name)
    except ValueError:
        raise ConfigError(f"unknown rule name {name!r}") from None


class Move(NamedTuple):
    node: int
    rule: Rule


@dataclass(frozen=True)
class Configuration:
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


class RngStream:
    """Seeded random stream; identical seed means identical draw sequence."""

    def __init__(self, seed: int):
        self.seed = seed
        self.position = 0
        self._rng = random.Random(seed)

    def bernoulli(self, p: float) -> int:
        """1 with probability p, else 0."""
        self.position += 1
        return 1 if self._rng.random() < p else 0

    def random(self) -> float:
        self.position += 1
        return self._rng.random()

    def randint(self, lo: int, hi: int) -> int:
        self.position += 1
        return self._rng.randint(lo, hi)

    def choice(self, seq: Sequence):
        self.position += 1
        return seq[self._rng.randrange(len(seq))]


class FixedDraws:
    """Stands in for RngStream when a script dictates every random outcome."""

    def __init__(self, outcomes: Iterable[int]):
        self._queue = deque(outcomes)

    def bernoulli(self, p: float) -> int:
        if not self._queue:
            raise ScriptError("scripted draw sequence exhausted")
        return self._queue.popleft()


#: the faulty-node marker as a module global, read per move
_BYZ = Rule.BYZ
_ONLY_BYZ = (_BYZ,)


def _counted(g: Graph, cfg: Configuration) -> tuple[
        list, list[int] | None, list[int], list[int]]:
    """cfg as the lists every guard reads: (s, x, deg, up), where up[u] is
    the number of u's neighbors with s = 1."""
    s = list(map(bool, cfg.s))
    adjacency = g.adjacency
    return (s, None if cfg.x is None else list(cfg.x),
            [len(nbrs) for nbrs in adjacency],
            [sum(map(s.__getitem__, nbrs)) for nbrs in adjacency])


def _scan(algo, s, x, deg, up, byz: frozenset[int]) -> dict[int, tuple[Rule, ...]]:
    guard = algo.enabled_rules
    out = {}
    for u in range(len(s)):
        if u in byz:
            out[u] = _ONLY_BYZ
        else:
            rules = guard(s, x, deg, up, u)
            if rules:
                out[u] = rules
    return out


def activable_map(algo, g: Graph, cfg: Configuration,
                  byz: frozenset[int] = frozenset()) -> dict[int, tuple[Rule, ...]]:
    """Enabled rules per activable node; faulty nodes are always activable.

    A full scan of every guard: a run scans its initial configuration once
    and then keeps the map current itself (`Activity`).
    """
    return _scan(algo, *_counted(g, cfg), byz)


def validate_move_set(g: Graph, moves: Sequence[Move],
                      activable: dict[int, tuple[Rule, ...]],
                      byz_strategies: dict) -> None:
    """Check the invariants of a move set against the activable map of the
    current configuration. The set must list its moves in ascending node
    order, as every daemon returns them; the stepper does not sort.

    Violations are engine errors: daemons must only emit valid sets.
    """
    if not moves:
        raise EngineError("move set must be nonempty")
    for prev, move in zip(moves, moves[1:]):
        if prev.node >= move.node:
            if prev.node > move.node:
                raise EngineError("move set is not sorted by node")
            ordered = sorted(moves, key=lambda m: (m.node, m.rule.value))
            raise EngineError(f"move set targets a node twice: {ordered}")
    for node, rule in moves:
        if not (0 <= node < g.n):
            raise EngineError(f"move on node {node} outside graph of size {g.n}")
        if rule is _BYZ:
            if node not in byz_strategies:
                raise EngineError(f"byz move on non-faulty node {node}")
        elif node in byz_strategies:
            raise EngineError(f"faulty node {node} may not execute algorithm rules")
        elif rule not in activable.get(node, ()):
            raise EngineError(f"rule {rule.value} not enabled on node {node}")


def is_stable(algo, g: Graph, cfg: Configuration,
              byz: frozenset[int] = frozenset()) -> bool:
    """True iff no node is activable. Meaningless with faulty nodes present."""
    if byz:
        raise ConfigError("stability is undefined while Byzantine nodes exist: "
                          "they are always activable")
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


class FairnessAges(abc.Sequence):
    """ages[u]: consecutive transitions, up to now, that u has spent activable
    without being activated; 0 while u is not activable.

    Kept as "activable since" stamps: only a node that moves or newly becomes
    activable is written, and an activable node's age is
    transitions - since[u]. Hot readers use the stamps directly: an
    activable u has age >= a iff since[u] <= transitions - a.
    """

    def __init__(self, n: int, activable: dict[int, tuple[Rule, ...]]):
        self.transitions = 0
        #: since[u]: the transition after which u last moved or became
        #: activable; meaningful only while u is activable
        self.since = [0] * n
        self._activable = activable

    def __len__(self) -> int:
        return len(self.since)

    def __getitem__(self, u: int) -> int:
        since = self.since[u]  # IndexError past the end ends iteration
        return self.transitions - since if u in self._activable else 0

    def advance(self, restarted: Iterable[int]) -> None:
        """Count one transition after which the `restarted` nodes (movers and
        newly activable nodes) have age 0."""
        self.transitions += 1
        for u in restarted:
            self.since[u] = self.transitions

    def oldest(self) -> int:
        """The largest age; only activable nodes can have a nonzero one."""
        return self.transitions - min(map(self.since.__getitem__, self._activable),
                                      default=self.transitions)


class Activity:
    """The transition stepper every run drives. It owns the run's state as
    plain lists: `s`, `x` (None when the algorithm keeps none), `deg`, and
    `up`, where up[u] is the number of u's neighbors with s = 1. It also
    owns the activable map, the round tracker and the fairness ages.
    An algorithm's `step` is handed the `s` and `x` lists; strategies and
    daemons read the state through the stepper's own `.s` and `.x`; a
    `Configuration` is built only on request (`snapshot`). `strategies`
    maps each faulty node to its behavior.

    Every guard reads only s[u], x[u], deg[u] and up[u]. After one scan of
    every guard for the initial configuration, `transition` adjusts `up`
    over N(u) for each mover u whose s flips, and re-evaluates guards on
    N[movers] only. A transition therefore costs the sum of deg u over the
    flipped movers plus O(|N[movers]|), however large the graph is.
    """

    def __init__(self, algo, g: Graph, cfg: Configuration,
                 strategies: dict | None = None):
        self._algo = algo
        self._g = g
        self._strategies = strategies or {}
        self._byz = frozenset(self._strategies)
        self.s, self.x, self.deg, self.up = _counted(g, cfg)
        self.activable = _scan(algo, self.s, self.x, self.deg, self.up, self._byz)
        #: N[movers] of the last transition, whose guards it re-evaluated
        self.touched: set[int] = set()
        self.tracker = RoundTracker(self.activable)
        self.ages = FairnessAges(g.n, self.activable)

    def snapshot(self) -> Configuration:
        """The current state as an immutable configuration: O(n)."""
        return Configuration(tuple(self.s),
                             None if self.x is None else tuple(self.x))

    def transition(self, moves: Sequence[Move], rng) -> tuple[
            Sequence[Move], tuple[int | None, ...], bool]:
        """Execute a move set, listed in ascending node order, on the
        current state and account it.

        Returns the moves, their draws and whether the transition closed a
        round; the new state is the stepper's own. An honest move costs one
        `step` call on the algorithm, which draws its own Bernoulli.
        """
        g, step, strategies = self._g, self._algo.step, self._strategies
        validate_move_set(g, moves, self.activable, strategies)
        s, x, deg, up, adjacency = self.s, self.x, self.deg, self.up, g.adjacency
        # every next state is computed against the current one before any
        # is written: simultaneous activation
        draws: list[int | None] = []
        nexts = []
        for node, rule in moves:
            if rule is _BYZ:
                new_s, new_x = strategies[node].act(g, self, node, rng)
                draw = None
            else:
                new_s, new_x, draw = step(g, s, x, node, rule, rng)
            draws.append(draw)
            nexts.append((new_s, new_x))

        moved = []
        self.touched = touched = set()
        for (node, _), (new_s, new_x) in zip(moves, nexts):
            moved.append(node)
            touched.add(node)
            touched.update(adjacency[node])
            if new_s != s[node]:
                s[node] = new_s
                delta = 1 if new_s else -1
                for v in adjacency[node]:
                    up[v] += delta
            if x is not None and new_x is not None:
                x[node] = new_x

        # only N[movers] can change activability
        guard, byz, activable = self._algo.enabled_rules, self._byz, self.activable
        left, entered = [], []
        for u in touched:
            if u in byz:
                continue
            rules = guard(s, x, deg, up, u)
            if rules:
                if u not in activable:
                    entered.append(u)
                activable[u] = rules
            elif activable.pop(u, None) is not None:
                left.append(u)
        self.ages.advance([*moved, *entered])
        ended = self.tracker.advance(moved, left, activable)
        return moves, tuple(draws), ended


@dataclass(frozen=True)
class TraceStep:
    moves: tuple[Move, ...]
    draws: tuple[int | None, ...]
    config: Configuration


@dataclass
class Trace:
    """Full record of one execution, sufficient to replay it exactly."""

    initial: Configuration
    steps: list[TraceStep] = field(default_factory=list)
    round_ends: list[int] = field(default_factory=list)
    seed: int | None = None

    @property
    def final(self) -> Configuration:
        return self.steps[-1].config if self.steps else self.initial

    def record(self, moves: tuple[Move, ...], draws: tuple[int | None, ...],
               config: Configuration, round_ended: bool) -> None:
        """Append one transition and the configuration it produced."""
        self.steps.append(TraceStep(tuple(moves), draws, config))
        if round_ended:
            self.round_ends.append(len(self.steps))

    def total_moves(self) -> int:
        return sum(len(step.moves) for step in self.steps)


_ONE, _ZERO = b"10"


class TraceWriter:
    """The trace encoder: one line per transition with its index, its
    node:rule:draw entries and the s-vector as 0/1, plus the comma-separated
    x-vector when the algorithm keeps one. Line 0 carries the initial
    configuration with a '-' move field.

    A transition writes state only at its movers, so the encoded s and x are
    kept between lines and only the movers' entries are re-encoded: a line
    costs O(|movers|) plus one join of the kept text. `record` reads those
    entries from `state`, anything with `.s` and `.x`: a run's live
    `Activity`, or a `Configuration`.
    """

    def __init__(self, fh: IO[str], initial: Configuration):
        self._fh = fh
        self._index = 0
        self._s = bytearray(_ONE if v else _ZERO for v in initial.s)
        self._x = None if initial.x is None else list(map(str, initial.x))
        fh.write(f"0 - {self._fields()}\n")

    def record(self, moves: tuple[Move, ...], draws: tuple[int | None, ...],
               state, round_ended: bool) -> None:
        self._index += 1
        s, x, s_text, x_text = state.s, state.x, self._s, self._x
        one, zero = _ONE, _ZERO
        entries = []
        for (node, rule), d in zip(moves, draws):
            s_text[node] = one if s[node] else zero
            if x_text is not None:
                x_text[node] = str(x[node])
            # _value_ is Rule.value without the enum descriptor's cost
            entries.append(f"{node}:{rule._value_}:{'-' if d is None else d}")
        self._fh.write(f"{self._index} {','.join(entries)} {self._fields()}\n")

    def _fields(self) -> str:
        s_text = self._s.decode("ascii")
        return s_text if self._x is None else f"{s_text} {','.join(self._x)}"


def dump_trace(trace: Trace, fh: IO[str]) -> None:
    """Encode an in-memory trace with `TraceWriter`."""
    writer = TraceWriter(fh, trace.initial)
    for step in trace.steps:
        writer.record(step.moves, step.draws, step.config, False)


def run_script(algo, g: Graph, cfg: Configuration,
               steps: Sequence[Sequence[tuple[int, Rule, int | None]]]) -> Trace:
    """Replay an explicit schedule with forced draws.

    Each step lists (node, rule, draw) with draw None for deterministic rules.
    A move that is not enabled fails the script.
    """
    trace = Trace(initial=cfg)
    activity = Activity(algo, g, cfg)
    for step in steps:
        # the stepper takes moves, and the draw feeder draws, in ascending
        # node order
        ordered = sorted(step, key=lambda e: e[0])
        forced = []
        for node, rule, d in ordered:
            if rule not in activity.activable.get(node, ()):
                raise ScriptError(
                    f"scripted move ({node},{rule.value}) not enabled at "
                    f"transition {len(trace.steps) + 1}")
            if rule is algo.random_rule:
                if d not in (0, 1):
                    raise ScriptError(
                        f"move ({node},{rule.value}) needs a scripted 0/1 draw")
                forced.append(d)
        moves, draws, ended = activity.transition(
            [Move(node, rule) for node, rule, _ in ordered], FixedDraws(forced))
        trace.record(moves, draws, activity.snapshot(), ended)
    return trace


def _coins(g: Graph, rng) -> tuple[bool, ...]:
    return tuple(rng.random() < 0.5 for _ in range(g.n))


def _degrees(g: Graph, rng) -> tuple[int, ...]:
    return tuple(g.degree(u) for u in range(g.n))


#: preset -> (s, x), each a function of (graph, rng); x is drawn after s,
#: and only for algorithms that keep it
_PRESETS = {
    "random": (_coins, lambda g, rng: tuple(rng.randint(0, g.n) for _ in range(g.n))),
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
