"""Slow references for the engine's fast paths.

- `pairwise_erdos_renyi_edges`: G(n, p) with one `random()` call per
  pair, the form the bulk generator must reproduce edge for edge.
- `PAPER_GUARDS` and `paper_rules`: the guards as the paper states them,
  each evaluated on its own, scanning N(u) for an up neighbor and comparing
  x[u] with the degree. The engine's counted guards (`enabled_rules` over
  s, x, deg, up) must return the one rule they enable, or None.
- `bfs_distances` and `bfs_safe_zone`: every node's full multi-source BFS
  distance, and the safe zone read off it; `graphs.safe_zone` grows only
  the ball of radius i and must return the same set.
- `safe_alone_set`: the locally alone nodes beyond direct Byzantine
  influence, recomputed from a whole configuration.
- `PAPER_COMMANDS` and `paper_move`: each algorithm's commands in the
  paper's two-call form over a whole configuration, `rule_probability` and
  then `apply` given the draw. The engine's batched `step` (one call per
  transition that draws its own Bernoullis), given a one-move list
  (`step_one`), must agree with them. `RecordingStream` records the
  probability of every draw, and `drawn_candidacy_probability` reads the
  one a Try-candidacy `step` draws with.
- `ordered_move_set_error`: the stepper's move-set checks made one after
  another, order first and then membership, giving the message of the
  first violation; `validate_move_set` must name the same, and the stepper
  must refuse exactly the lists it refuses.
- `Move` and `apply_transition`: one transition on a whole immutable
  configuration, given as (node, rule) moves and checked by
  `check_move_set` against a full `activable_map` scan: every rule must be
  the node's enabled one, `byz` exactly on the faulty nodes. It is computed
  through the paper-form commands and written into a fresh copy of the s
  (and x) vector.
- `activable_flags` and `daemon_view`: the stepper's activable flags built
  from an activable map, and what a daemon reads of a stepper over a whole
  configuration: s, x, those flags, and plain per-node ages as the
  "activable since" stamps `since` and `transitions`.
- `singleton_pick`: the singleton daemon's round-robin pick as a walk over
  node indices from its cursor, modulo n.
- `WholeConfigurationLedger` and `whole_configuration_ledger`: the color
  ledger as it read a before/after configuration pair per transition,
  walking every node for the fresh-up set and the "up since" stamps,
  keeping each color's taint set (its members that moved under another
  color while it lived) where the ledger reads success off its stamps, and
  rescanning the locally alone set whenever a color dies; it replays a
  trace through `apply_transition`, not through the stepper.

It also holds the tools that read an execution in memory:

- `recording` and `traced_trial`: a recorder around `Activity.transition`
  that keeps each transition's moves, draws and resulting configuration,
  and the round ends, as a `Trace`, and checks after every transition that
  the stepper's activable flags are the indicator of its activable map.
- `forced_draws`: a stream whose Bernoulli draws are the given outcomes.
- `scripted_ledger`: a stepper and a color ledger driven over a
  hand-made configuration by (node, rule, draw) steps, loaded as a script
  file's lines are and replayed by a scripted daemon.
"""

import contextlib
import random
from dataclasses import dataclass, field
from typing import NamedTuple

from mislab.algorithms import ALGORITHMS
from mislab.analysis import (
    ColorLedger,
    ColorRecord,
    is_candidate_set,
    is_independent,
    locally_alone_set,
)
from mislab.daemons import ScriptedDaemon
from mislab.engine import (
    BYZ,
    CANDIDACY,
    REFRESH,
    TRY_CANDIDACY,
    TRY_WITHDRAW,
    WITHDRAW,
    Activity,
    Configuration,
    FixedDraws,
    RngStream,
    activable_map,
)
from mislab.errors import ConfigError, EngineError, InvariantViolation
from mislab.graphs import Graph, safe_zone
from mislab.harness import _load_script, run_trial


class Move(NamedTuple):
    """One move of the paper-form stepper: a node and the rule it runs."""

    node: int
    rule: str


def pairwise_erdos_renyi_edges(n, p, seed):
    """The edges of G(n, p), one draw per pair in row-major order."""
    rng = random.Random(seed)
    return frozenset(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    )


#: each algorithm's guards as the paper states them, one predicate per rule
#: over (s[u], whether x[u] is u's degree, whether some neighbor is up)
PAPER_GUARDS = {
    "byzantine": (
        (REFRESH, lambda s_u, x_ok, up: not x_ok),
        (TRY_CANDIDACY, lambda s_u, x_ok, up: x_ok and not s_u and not up),
        (WITHDRAW, lambda s_u, x_ok, up: x_ok and s_u and up),
    ),
    "anonymous": (
        (CANDIDACY, lambda s_u, x_ok, up: not s_u and not up),
        (TRY_WITHDRAW, lambda s_u, x_ok, up: s_u and up),
    ),
}


def paper_rules(algo, g, cfg, u):
    """The rules enabled at u in cfg: every rule whose paper-form guard
    holds, each guard evaluated on its own."""
    s = cfg.s
    up_neighbor = any(s[v] for v in g.adjacency[u])
    x_ok = not algo.uses_x or cfg.x[u] == g.degree(u)
    return tuple(rule for rule, guard in PAPER_GUARDS[algo.name]
                 if guard(s[u], x_ok, up_neighbor))


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
    """The paper-form guards' rules at u, after checking that the counted
    guard returns exactly their one rule, or None when they enable none."""
    rules = paper_rules(algo, g, cfg, u)
    assert len(rules) <= 1, (u, cfg)
    rule = algo.enabled_rules(*counted_state(g, cfg), u)
    assert rule == (rules[0] if rules else None), (u, cfg)
    return rules


def bfs_distances(g, sources):
    """Every node's BFS distance from the nearest source; None where no
    source reaches."""
    dist = [None] * g.n
    frontier = list(sources)
    for s in frontier:
        dist[s] = 0
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.adjacency[u]:
                if dist[v] is None:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def bfs_safe_zone(g, faulty, i):
    """The nodes whose full BFS distance from the faulty set exceeds i,
    unreachable ones included."""
    dist = bfs_distances(g, faulty)
    return frozenset(u for u in range(g.n) if dist[u] is None or dist[u] > i)


def safe_alone_set(g, byz, cfg):
    """Locally alone nodes beyond direct Byzantine influence (distance > 1)."""
    result = locally_alone_set(g, cfg) & safe_zone(g, byz, 1)
    assert is_independent(g, result)
    return result


class PaperByzantineCommands:
    """ByzantineMIS's probability and command, read off a configuration."""

    name = "byzantine"

    def rule_probability(self, g: Graph, cfg: Configuration, u: int,
                         rule: str) -> float | None:
        if rule is TRY_CANDIDACY:
            # 1 / (1 + max x over the closed neighborhood N[u])
            return 1.0 / (1.0 + max(cfg.x[v] for v in (u, *g.adjacency[u])))
        return None

    def apply(self, g: Graph, cfg: Configuration, u: int, rule: str,
              draw: int | None) -> tuple[bool, int]:
        if rule is REFRESH:
            return cfg.s[u], g.degree(u)
        if rule is TRY_CANDIDACY:
            return (True if draw == 1 else cfg.s[u]), cfg.x[u]
        if rule is WITHDRAW:
            return False, cfg.x[u]
        raise EngineError(f"rule {rule} does not belong to {self.name}")


class PaperAnonymousCommands:
    """AnonymousMIS's probability and command, read off a configuration."""

    name = "anonymous"

    def rule_probability(self, g: Graph, cfg: Configuration, u: int,
                         rule: str) -> float | None:
        if rule is TRY_WITHDRAW:
            return 0.5
        return None

    def apply(self, g: Graph, cfg: Configuration, u: int, rule: str,
              draw: int | None) -> tuple[bool, None]:
        if rule is CANDIDACY:
            return True, None
        if rule is TRY_WITHDRAW:
            return (False if draw == 1 else cfg.s[u]), None
        raise EngineError(f"rule {rule} does not belong to {self.name}")


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


def forced_draws(draws):
    """A stream whose Bernoulli draws are `draws`, in order; one draw more
    is a ScriptError."""
    stream = FixedDraws(0)
    stream.forced.extend(draws)
    return stream


def step_one(algo, g, state, u, rule, rng, strategies=None):
    """u's move by `rule` through the engine's `step`, as a one-move list
    whose activable map gives u that rule: (new_s, new_x, draw), where an
    x the move does not write reads as u's own."""
    rules, draws, new_s, new_x = algo.step(g, state, [u], {u: rule},
                                           strategies or {}, rng)
    assert rules == [rule]
    x = new_x[0] if new_x[0] is not None or state.x is None else state.x[u]
    return new_s[0], x, draws[0]


class RecordingStream:
    """A draw stream that records the probability of every draw it makes."""

    def __init__(self, rng):
        self.rng = rng
        self.probabilities = []

    def bernoulli(self, p):
        self.probabilities.append(p)
        return self.rng.bernoulli(p)

    def __getattr__(self, name):
        # a strategy's draws other than Bernoullis, from the stream itself
        return getattr(self.rng, name)


def drawn_candidacy_probability(g, x, u):
    """The probability the Byzantine `step` draws u's Try-candidacy coin
    with, every node down and advertising the x-values `x`, read off a
    recording stream."""
    rng = RecordingStream(RngStream(0))
    cfg = Configuration((False,) * g.n, tuple(x))
    step_one(ALGORITHMS["byzantine"], g, counted_state(g, cfg), u,
             TRY_CANDIDACY, rng)
    [p] = rng.probabilities
    return p


def move(algo, g, cfg, u, rule, draw=None):
    """u's move by `rule` in cfg through the engine's `step`, fed `draw`
    (if any) as its Bernoulli outcome and checked against the paper-form
    commands: (new_s, new_x, draw)."""
    state = counted_state(g, cfg)
    forced = () if draw is None else (draw,)
    got = step_one(algo, g, state, u, rule, forced_draws(forced))
    assert got == paper_move(algo, g, cfg, u, rule, forced_draws(forced)), (u, cfg)
    return got


def activable_flags(n, activable):
    """The indicator of the activable map's keys, one byte per node."""
    flags = bytearray(n)
    for u in activable:
        flags[u] = 1
    return flags


class DaemonView(NamedTuple):
    """What a daemon reads of a stepper: its s and x, its flags, and its
    fairness stamps."""

    s: tuple
    x: tuple | None
    flags: bytearray
    since: list[int]
    transitions: int


def daemon_view(cfg, activable, ages=None):
    """cfg and its activable map as a daemon reads a stepper; `ages` are
    plain per-node ages (0 where not given, and read as 0 off the map),
    kept as the stepper keeps them, "activable since" stamps."""
    ages = ages or [0] * len(cfg.s)
    transitions = max(ages, default=0)
    return DaemonView(cfg.s, cfg.x, activable_flags(len(cfg.s), activable),
                      [transitions - age for age in ages], transitions)


def singleton_pick(n, activable, cursor):
    """The singleton daemon's pick from `cursor`: the first activable node
    met walking the indices cursor, cursor + 1, ... modulo n, and the
    cursor after it; None when nothing is activable."""
    for offset in range(n):
        u = (cursor + offset) % n
        if u in activable:
            return u, (u + 1) % n
    return None


def ordered_move_set_error(g, nodes, activable):
    """The message of the first violation in a daemon's node list, checked
    in order: nonempty, then strictly ascending, then each node in the
    activable map; None for a valid list."""
    if not nodes:
        return "move set must be nonempty"
    for prev, u in zip(nodes, nodes[1:]):
        if prev > u:
            return "move set is not sorted by node"
        if prev == u:
            return f"move set targets node {u} twice"
    for u in nodes:
        if u not in activable:
            if not 0 <= u < g.n:
                return f"move on node {u} outside graph of size {g.n}"
            return f"move on node {u}, which is not activable"
    return None


def check_move_set(g, moves, activable, byz_strategies):
    """The checks of a node-sorted move set against the activable map of
    its configuration; a violation is an engine error."""
    if not moves:
        raise EngineError("move set must be nonempty")
    for prev, move in zip(moves, moves[1:]):
        if prev.node == move.node:
            raise EngineError(f"move set targets a node twice: {moves}")
    for node, rule in moves:
        if not (0 <= node < g.n):
            raise EngineError(f"move on node {node} outside graph of size {g.n}")
        if rule is BYZ:
            if node not in byz_strategies:
                raise EngineError(f"byz move on non-faulty node {node}")
        elif node in byz_strategies:
            raise EngineError(f"faulty node {node} may not execute algorithm rules")
        elif activable.get(node) is not rule:
            raise EngineError(f"rule {rule} not enabled on node {node}")


def apply_transition(algo, g, cfg, moves, rng, byz_strategies=None):
    """Execute a valid move set simultaneously and return (next config,
    draws); draws align with the node-sorted moves, None for deterministic
    rules and faulty-node actions."""
    byz_strategies = byz_strategies or {}
    activable = activable_map(algo, g, cfg, frozenset(byz_strategies))
    ordered = tuple(sorted(moves, key=lambda m: m.node))
    check_move_set(g, ordered, activable, byz_strategies)
    s = list(cfg.s)
    x = list(cfg.x) if cfg.x is not None else None
    draws = []
    for node, rule in ordered:
        if rule is BYZ:
            new_s, new_x = byz_strategies[node].act(cfg, node, rng)
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
    shared with another color ended up settled: a member is shared once it
    moves under another color while this one lives (`tainted`).

    Possible withdrawal moves are read from `activable`, the activable map of
    the run, which the caller brings up to date before recording each
    transition (`whole_configuration_ledger` rescans every guard).
    """

    def __init__(self, g: Graph, algo, initial: Configuration,
                 activable: dict[int, str]):
        if algo.uses_x:
            raise ConfigError("color instrumentation applies to anonymous runs only")
        self.g = g
        self._activable = activable
        self.index = 0
        self._top_since: list[int | None] = [
            0 if up else None for up in initial.s]
        self.fresh_sets: dict[int, frozenset[int]] = {}
        self.records: dict[int, ColorRecord] = {}
        #: each color's members that moved under another color while it lived
        self.tainted: dict[int, set[int]] = {}
        self.move_colors: list[tuple[int, ...]] = []
        a0 = frozenset(u for u in range(g.n) if initial.s[u])
        if a0:
            self.fresh_sets[0] = a0
            self.records[0] = ColorRecord(0, a0)
            self.tainted[0] = set()
        self._scan_possible_moves(initial)

    def record(self, cfg_before: Configuration, moves: tuple[Move, ...],
               cfg_after: Configuration) -> None:
        """Account one executed transition. Moves must be node-sorted."""
        self.index += 1
        i = self.index
        fresh = frozenset(
            u for u in range(self.g.n) if not cfg_before.s[u] and cfg_after.s[u])
        candidates = frozenset(m.node for m in moves if m.rule is CANDIDACY)
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
            self.tainted[i] = set()

        colors = []
        for node, rule in moves:
            if rule is CANDIDACY:
                color = i
            elif rule is TRY_WITHDRAW:
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
                    f"transition {i}: rule {rule} has no color")
            colors.append(color)
            for other in self.records.values():
                if (other.died is None and other.color != color
                        and node in other.members):
                    self.tainted[other.color].add(node)
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
            if activable[u] is TRY_WITHDRAW:
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
                    u in settled
                    for u in record.members - self.tainted[record.color])

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
            forced_draws(d for d in step.draws if d is not None))
        activable.clear()
        activable.update(activable_map(algo, g, after))
        ledger.record(before, step.moves, after)
        before = after
    return ledger


class TraceStep(NamedTuple):
    moves: tuple[Move, ...]
    draws: tuple[int | None, ...]
    config: Configuration


@dataclass
class Trace:
    """One execution as a recorder saw it: the stepper's initial
    configuration, then each transition's moves, draws and resulting
    configuration; `round_ends` lists the transitions (1-based) that
    closed a round."""

    initial: Configuration
    steps: list[TraceStep] = field(default_factory=list)
    round_ends: list[int] = field(default_factory=list)

    @property
    def final(self) -> Configuration:
        return self.steps[-1].config if self.steps else self.initial

    def entries(self) -> list[list[tuple]]:
        """Each transition's (node, rule, draw) entries, as
        `scripted_ledger` takes them."""
        return [[(node, rule, d) for (node, rule), d in zip(step.moves, step.draws)]
                for step in self.steps]


@contextlib.contextmanager
def recording():
    """Record every stepper made in the block: yields a list that gains a
    `Trace` for each `Activity` built, filled in as it steps."""
    traces = []
    init, transition = Activity.__init__, Activity.transition

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        assert self.flags == activable_flags(len(self.s), self.activable)
        self.recorded = Trace(self.snapshot())
        traces.append(self.recorded)

    def recording_transition(self, nodes, rng):
        rules, draws, ended = transition(self, nodes, rng)
        assert self.flags == activable_flags(len(self.s), self.activable)
        trace = self.recorded
        trace.steps.append(TraceStep(tuple(map(Move, nodes, rules)),
                                     tuple(draws), self.snapshot()))
        if ended:
            trace.round_ends.append(len(trace.steps))
        return rules, draws, ended

    Activity.__init__, Activity.transition = recording_init, recording_transition
    try:
        yield traces
    finally:
        Activity.__init__, Activity.transition = init, transition


def traced_trial(spec, trial, **kwargs):
    """run_trial(spec, trial, **kwargs) under a recorder: (outcome, Trace)."""
    with recording() as traces:
        outcome = run_trial(spec, trial, **kwargs)
    (trace,) = traces
    return outcome, trace


def scripted_ledger(algo, g, cfg, steps):
    """Drive a stepper and a color ledger from cfg through `steps`, each a
    nonempty list of (node, rule, draw) entries in any order, loaded as the
    lines of a script file and replayed by a scripted daemon, which checks
    every rule and forces the draws: (ledger, Trace)."""
    lines = [",".join(f"{node}:{rule}:{'-' if d is None else d}"
                      for node, rule, d in step) for step in steps]
    daemon = ScriptedDaemon(_load_script(lines, "steps", g.n, algo, frozenset()))
    rng = daemon.stream(0)
    with recording() as traces:
        activity = Activity(algo, g, cfg)
        ledger = ColorLedger(activity)
        for _ in steps:
            nodes = daemon.select(g, activity, activity.activable, rng)
            rules, _, _ = activity.transition(nodes, rng)
            ledger.record(nodes, rules)
    return ledger, traces[0]
