"""Slow references for the engine's fast paths.

- `paper_rules`: the guards as the paper states them, scanning N(u) for an
  up neighbor and comparing x[u] with the degree. The engine's counted
  guards (`enabled_rules` over s, x, deg, up) must agree with them.
- `apply_transition`: one transition on a whole immutable configuration,
  validated against a full `activable_map` scan and written into a fresh
  copy of the s (and x) vector.
- `WholeConfigurationLedger` and `whole_configuration_ledger`: the color
  ledger as it read a before/after configuration pair per transition,
  walking every node for the fresh-up set and the "up since" stamps and
  rescanning the locally alone set whenever a color dies.
"""

from typing import NamedTuple

from mislab.analysis import ColorRecord, is_candidate_set, locally_alone_set
from mislab.engine import (
    Activity,
    Configuration,
    FixedDraws,
    Move,
    Rule,
    activable_map,
    validate_move_set,
)
from mislab.errors import ConfigError, InvariantViolation
from mislab.graphs import Graph


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
            p = algo.rule_probability(g, cfg, node, rule)
            draw = rng.bernoulli(p) if p is not None else None
            draws.append(draw)
            new_s, new_x = algo.apply(g, cfg, node, rule, draw)
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
    the run, which the caller keeps current (an `Activity` does) and brings
    up to date before recording each transition.
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
    its moves and draws again."""
    activity = Activity(algo, g, trace.initial)
    ledger = WholeConfigurationLedger(g, algo, trace.initial, activity.activable)
    before = trace.initial
    for step in trace.steps:
        moves, _, _ = activity.transition(
            step.moves, FixedDraws(d for d in step.draws if d is not None))
        after = activity.snapshot()
        ledger.record(before, moves, after)
        before = after
    return ledger
