"""Slow references for the engine's fast paths.

- `pairwise_erdos_renyi_edges`: G(n, p) with one `random()` call per
  pair, the form the bulk generator must reproduce edge for edge.
- `paper_rules`: the guards as the paper states them, scanning N(u) for an
  up neighbor and comparing x[u] with the degree. The engine's counted
  guards (`enabled_rules` over s, x, deg, up) must agree with them.
- `PAPER_COMMANDS` and `paper_move`: each algorithm's commands in the
  paper's two-call form over a whole configuration, `rule_probability` and
  then `apply` given the draw. The engine's fused `step` (one call that
  draws its own Bernoulli) must agree with them.
- `apply_transition`: one transition on a whole immutable configuration,
  validated against a full `activable_map` scan, computed through the
  paper-form commands and written into a fresh copy of the s (and x) vector.
- `fairness_ages`: plain per-node ages as the "activable since" stamps
  that daemons read.
- `WholeConfigurationLedger` and `whole_configuration_ledger`: the color
  ledger as it read a before/after configuration pair per transition,
  walking every node for the fresh-up set and the "up since" stamps and
  rescanning the locally alone set whenever a color dies; it replays a
  trace through `apply_transition`, not through the stepper.
"""

import random
from typing import NamedTuple

from mislab.analysis import ColorRecord, is_candidate_set, locally_alone_set
from mislab.engine import (
    Configuration,
    FairnessAges,
    FixedDraws,
    Move,
    Rule,
    activable_map,
    validate_move_set,
)
from mislab.errors import ConfigError, EngineError, InvariantViolation
from mislab.graphs import Graph


def pairwise_erdos_renyi_edges(n, p, seed):
    """The edges of G(n, p), one draw per pair in row-major order."""
    rng = random.Random(seed)
    return frozenset(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    )


def paper_rules(algo, g, cfg, u):
    """The enabled rules of u in cfg, read off the paper's guards."""
    s = cfg.s
    up_neighbor = any(s[v] for v in g.adjacency[u])
    if algo.uses_x:
        if cfg.x[u] != g.degree(u):
            return (Rule.REFRESH,)
        if not s[u]:
            return () if up_neighbor else (Rule.TRY_CANDIDACY,)
        return (Rule.WITHDRAW,) if up_neighbor else ()
    if s[u]:
        return (Rule.TRY_WITHDRAW,) if up_neighbor else ()
    return () if up_neighbor else (Rule.CANDIDACY,)


class CountedState(NamedTuple):
    """The lists a stepper keeps: up[u] counts u's neighbors with s = 1."""

    s: list
    x: list | None
    deg: list
    up: list


def counted_state(g, cfg):
    """cfg's counted state, recounted from scratch."""
    s = list(cfg.s)
    return CountedState(
        s, None if cfg.x is None else list(cfg.x),
        [g.degree(u) for u in range(g.n)],
        [sum(1 for v in g.adjacency[u] if s[v]) for u in range(g.n)])


def closed_neighbourhood(g, nodes):
    """N[nodes]: the nodes and all their neighbors."""
    return {w for u in nodes for w in (u, *g.adjacency[u])}


def enabled(algo, g, cfg, u):
    """The counted guard's rules at u, checked against the paper's form."""
    rules = algo.enabled_rules(*counted_state(g, cfg), u)
    assert rules == paper_rules(algo, g, cfg, u), (u, cfg)
    return rules


class PaperByzantineCommands:
    """ByzantineMIS's probability and command, read off a configuration."""

    name = "byzantine"

    def rule_probability(self, g: Graph, cfg: Configuration, u: int,
                         rule: Rule) -> float | None:
        if rule is Rule.TRY_CANDIDACY:
            # 1 / (1 + max x over the closed neighborhood N[u])
            return 1.0 / (1.0 + max(cfg.x[v] for v in (u, *g.adjacency[u])))
        return None

    def apply(self, g: Graph, cfg: Configuration, u: int, rule: Rule,
              draw: int | None) -> tuple[bool, int]:
        if rule is Rule.REFRESH:
            return cfg.s[u], g.degree(u)
        if rule is Rule.TRY_CANDIDACY:
            return (True if draw == 1 else cfg.s[u]), cfg.x[u]
        if rule is Rule.WITHDRAW:
            return False, cfg.x[u]
        raise EngineError(f"rule {rule.value} does not belong to {self.name}")


class PaperAnonymousCommands:
    """AnonymousMIS's probability and command, read off a configuration."""

    name = "anonymous"

    def rule_probability(self, g: Graph, cfg: Configuration, u: int,
                         rule: Rule) -> float | None:
        if rule is Rule.TRY_WITHDRAW:
            return 0.5
        return None

    def apply(self, g: Graph, cfg: Configuration, u: int, rule: Rule,
              draw: int | None) -> tuple[bool, None]:
        if rule is Rule.CANDIDACY:
            return True, None
        if rule is Rule.TRY_WITHDRAW:
            return (False if draw == 1 else cfg.s[u]), None
        raise EngineError(f"rule {rule.value} does not belong to {self.name}")


#: algorithm name -> its paper-form commands
PAPER_COMMANDS = {
    "byzantine": PaperByzantineCommands(),
    "anonymous": PaperAnonymousCommands(),
}


def paper_move(algo, g, cfg, u, rule, rng):
    """u's move in the paper's two calls, `rule_probability` and then
    `apply`, drawing from rng between them: (new_s, new_x, draw), as the
    engine's `step` returns it."""
    commands = PAPER_COMMANDS[algo.name]
    p = commands.rule_probability(g, cfg, u, rule)
    draw = rng.bernoulli(p) if p is not None else None
    return (*commands.apply(g, cfg, u, rule, draw), draw)


def move(algo, g, cfg, u, rule, draw=None):
    """u's move by `rule` in cfg through the engine's `step`, fed `draw`
    (if any) as its Bernoulli outcome and checked against the paper-form
    commands: (new_s, new_x, draw)."""
    state = counted_state(g, cfg)
    forced = () if draw is None else (draw,)
    got = algo.step(g, state.s, state.x, u, rule, FixedDraws(forced))
    assert got == paper_move(algo, g, cfg, u, rule, FixedDraws(forced)), (u, cfg)
    return got


def fairness_ages(ages, activable):
    """Plain per-node ages (0 off the activable map) as the stamps a
    `FairnessAges` keeps, which read back as the same ages."""
    stamps = FairnessAges(len(ages), activable)
    stamps.transitions = max(ages, default=0)
    stamps.since = [stamps.transitions - age for age in ages]
    assert [stamps[u] for u in range(len(ages))] == [
        ages[u] if u in activable else 0 for u in range(len(ages))]
    return stamps


def apply_transition(algo, g, cfg, moves, rng, byz_strategies=None):
    """Execute a valid move set simultaneously and return (next config,
    draws); draws align with the node-sorted moves, None for deterministic
    rules and faulty-node actions."""
    byz_strategies = byz_strategies or {}
    activable = activable_map(algo, g, cfg, frozenset(byz_strategies))
    ordered = tuple(sorted(moves, key=lambda m: m.node))
    validate_move_set(g, ordered, activable, byz_strategies)
    s = list(cfg.s)
    x = list(cfg.x) if cfg.x is not None else None
    draws = []
    for node, rule in ordered:
        if rule is Rule.BYZ:
            new_s, new_x = byz_strategies[node].act(g, cfg, node, rng)
            draws.append(None)
        else:
            new_s, new_x, draw = paper_move(algo, g, cfg, node, rule, rng)
            draws.append(draw)
        s[node] = new_s
        if x is not None and new_x is not None:
            x[node] = new_x
    return Configuration(tuple(s), tuple(x) if x is not None else None), tuple(draws)


class WholeConfigurationLedger:
    """The color ledger over before/after configuration pairs.

    Tracks per transition i: the freshly-up set A_i, the color of every
    executed candidacy/try-withdrawal move (candidacy moves take their own
    index; a try-withdrawal takes the index since when its node has been
    continuously up), which colors still have possible withdrawal moves,
    and, at each color's death, whether some member it never
    shared with another color ended up settled.

    Possible withdrawal moves are read from `activable`, the activable map of
    the run, which the caller brings up to date before recording each
    transition (`whole_configuration_ledger` rescans every guard).
    """

    def __init__(self, g: Graph, algo, initial: Configuration,
                 activable: dict[int, tuple[Rule, ...]]):
        if algo.uses_x:
            raise ConfigError("color instrumentation applies to anonymous runs only")
        self.g = g
        self._activable = activable
        self.index = 0
        self._top_since: list[int | None] = [
            0 if up else None for up in initial.s]
        self.fresh_sets: dict[int, frozenset[int]] = {}
        self.records: dict[int, ColorRecord] = {}
        self.move_colors: list[tuple[int, ...]] = []
        a0 = frozenset(u for u in range(g.n) if initial.s[u])
        if a0:
            self.fresh_sets[0] = a0
            self.records[0] = ColorRecord(0, a0)
        self._scan_possible_moves(initial)

    def record(self, cfg_before: Configuration, moves: tuple[Move, ...],
               cfg_after: Configuration) -> None:
        """Account one executed transition. Moves must be node-sorted."""
        self.index += 1
        i = self.index
        fresh = frozenset(
            u for u in range(self.g.n) if not cfg_before.s[u] and cfg_after.s[u])
        candidates = frozenset(m.node for m in moves if m.rule is Rule.CANDIDACY)
        if fresh != candidates:
            raise InvariantViolation(
                f"transition {i}: fresh-up set {sorted(fresh)} does not match "
                f"candidacy movers {sorted(candidates)}")
        if fresh:
            if not is_candidate_set(self.g, cfg_after, fresh):
                raise InvariantViolation(
                    f"transition {i}: fresh-up set {sorted(fresh)} is not a "
                    "candidate set")
            self.fresh_sets[i] = fresh
            self.records[i] = ColorRecord(i, fresh)

        colors = []
        for node, rule in moves:
            if rule is Rule.CANDIDACY:
                color = i
            elif rule is Rule.TRY_WITHDRAW:
                color = self._top_since[node]
                if color is None:
                    raise InvariantViolation(
                        f"transition {i}: withdrawal on node {node} that was "
                        "not up")
                record = self.records.get(color)
                if record is None or node not in record.members:
                    raise InvariantViolation(
                        f"transition {i}: move on node {node} resolved to "
                        f"color {color} it does not belong to")
                record.withdrawal_moves += 1
            else:
                raise InvariantViolation(
                    f"transition {i}: rule {rule.value} has no color")
            colors.append(color)
            for other in self.records.values():
                if (other.died is None and other.color != color
                        and node in other.members):
                    other.tainted.add(node)
        self.move_colors.append(tuple(colors))

        for u in range(self.g.n):
            if cfg_after.s[u] and not cfg_before.s[u]:
                self._top_since[u] = i
            elif not cfg_after.s[u]:
                self._top_since[u] = None
        self._scan_possible_moves(cfg_after)

    def _scan_possible_moves(self, cfg: Configuration) -> None:
        """Recompute which colors still have possible withdrawal moves, then
        settle the accounts of colors that just lost their last one."""
        i = self.index
        live: set[int] = set()
        activable = self._activable
        for u in sorted(activable):
            if Rule.TRY_WITHDRAW in activable[u]:
                color = self._top_since[u]
                record = self.records.get(color)
                if record is None:
                    raise InvariantViolation(
                        f"index {i}: possible withdrawal on node {u} has no "
                        f"color record for {color}")
                if record.died is not None:
                    raise InvariantViolation(
                        f"index {i}: color {color} died at {record.died} but "
                        f"node {u} can still move with it")
                live.add(color)
        settled = None
        for record in self.records.values():
            if record.died is None and record.color not in live:
                record.died = i
                if settled is None:
                    settled = locally_alone_set(self.g, cfg)
                record.success = any(
                    u in settled for u in record.members - record.tainted)

    def all_dead(self) -> bool:
        return all(r.died is not None for r in self.records.values())

    def report_rows(self) -> list[tuple]:
        rows = []
        for color in sorted(self.records):
            r = self.records[color]
            rows.append((color, r.size, color, r.died, r.withdrawal_moves,
                         r.success))
        return rows


def whole_configuration_ledger(g, algo, trace):
    """Run the full instrumentation over a recorded execution by executing
    its moves and draws again, one whole configuration at a time, through
    the paper-form commands."""
    activable = activable_map(algo, g, trace.initial)
    ledger = WholeConfigurationLedger(g, algo, trace.initial, activable)
    before = trace.initial
    for step in trace.steps:
        after, _ = apply_transition(
            algo, g, before, step.moves,
            FixedDraws(d for d in step.draws if d is not None))
        activable.clear()
        activable.update(activable_map(algo, g, after))
        ledger.record(before, step.moves, after)
        before = after
    return ledger
