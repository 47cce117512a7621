"""Experiment runner: run specs, single trials, size sweeps, CSV outputs.

A run spec is a flat "key = value" text file (grammar in the README). The
same spec plus the same master seed always reproduces byte-identical CSV.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import math
import statistics
from dataclasses import dataclass, field, replace
from typing import IO, Iterable

from . import byzantine as byz_mod
from .algorithms import get_algorithm
from .analysis import (
    ColorLedger,
    SafeAloneTracker,
    ledger_from_trace,
    locally_alone_set,
    safe_alone_set,
)
from .daemons import make_daemon
from .engine import (
    Activity,
    Configuration,
    Move,
    RngStream,
    Rule,
    Trace,
    TraceStep,
    activable_map,
    apply_transition,
    derive_seed,
    initial_configuration,
    rule_from_name,
    run_script,
)
from .errors import ConfigError, InvariantViolation
from .graphs import Graph, generate_graph, make_graph, read_graph, safe_zone, sized_params

TRIAL_COLUMNS = ("spec_hash", "trial", "seed", "moves", "rounds", "converged",
                 "criterion", "set_size", "ceiling_hit")

SWEEP_COLUMNS = ("spec_hash", "n", "delta", "trials", "converged", "ceiling_hits",
                 "mean_moves", "std_moves", "min_moves", "max_moves",
                 "p50_moves", "p95_moves",
                 "mean_rounds", "std_rounds", "min_rounds", "max_rounds",
                 "p50_rounds", "p95_rounds",
                 "moves_bound_3n2", "rounds_bound_linear")


@dataclass(frozen=True)
class RunSpec:
    """Everything that determines an experiment. Seeds included: two specs
    that compare equal produce identical results."""

    algorithm: str
    graph: str
    n: int | None = None
    leaves: int | None = None
    rows: int | None = None
    cols: int | None = None
    p: float | None = None
    graph_seed: int = 0
    graph_file: str | None = None
    daemon: str = "synchronous"
    fairness: int | None = None
    density: float = 0.5
    script_file: str | None = None
    init: str = "random"
    trials: int = 1
    master_seed: int = 0
    move_ceiling: int = 0
    round_ceiling: int = 0
    byzantine: tuple[int, ...] = ()
    strategies: tuple[tuple[int, str, int | None], ...] = ()
    x_cap: int = byz_mod.DEFAULT_X_CAP
    hold_rounds: int = 0
    instrument: bool = False
    check_invariants: bool = True
    sizes: tuple[int, ...] = ()
    out: str | None = None
    trace_out: str | None = None
    ledger_out: str | None = None


@dataclass
class TrialRecord:
    """Outcome of one trial.

    moves/rounds are the counts at convergence (first legitimacy hit for
    Byzantine runs); moves_by_rule and transitions tally the whole run,
    which only differs when a confirmation window extends it.
    """

    trial: int
    seed: int
    moves: int
    moves_by_rule: dict[str, int]
    transitions: int
    rounds: int
    converged: bool
    criterion: str
    set_size: int
    ceiling_hit: bool


@dataclass
class TrialOutcome:
    record: TrialRecord
    final: Configuration
    graph: Graph
    trace: Trace | None = None
    ledger: ColorLedger | None = None


_INT_KEYS = ("n", "leaves", "rows", "cols", "graph_seed", "fairness", "trials",
             "master_seed", "move_ceiling", "round_ceiling", "x_cap", "hold_rounds")
_FLOAT_KEYS = ("p", "density")
_BOOL_KEYS = ("instrument", "check_invariants")
_STR_KEYS = ("algorithm", "graph", "graph_file", "daemon", "script_file", "init",
             "out", "trace_out", "ledger_out")
_LIST_KEYS = ("byzantine", "strategies", "sizes")


def _parse_bool(value: str) -> bool:
    if value.lower() in ("true", "yes", "1"):
        return True
    if value.lower() in ("false", "no", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {value!r}")


def _number(kind: type, key: str, value: str):
    """int(value) or float(value), as a ConfigError naming the key on failure."""
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(
            f"{key}: expected {'an integer' if kind is int else 'a number'}, "
            f"got {value!r}") from None


def _parse_strategy(token: str) -> tuple[int, str, int | None]:
    parts = token.split(":")
    if len(parts) == 2:
        return _number(int, "strategies", parts[0]), parts[1], None
    if len(parts) == 3:
        return (_number(int, "strategies", parts[0]), parts[1],
                _number(int, "strategies", parts[2]))
    raise ConfigError(f"strategy entries are node:kind[:x_cap], got {token!r}")


def parse_run_spec(text: str) -> RunSpec:
    """Parse the flat one-key-per-line format; '#' starts a comment."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in _INT_KEYS:
            values[key] = _number(int, key, value)
        elif key in _FLOAT_KEYS:
            values[key] = _number(float, key, value)
        elif key in _BOOL_KEYS:
            values[key] = _parse_bool(value)
        elif key in _STR_KEYS:
            values[key] = value
        elif key in ("byzantine", "sizes"):
            values[key] = tuple(
                _number(int, key, v) for v in value.split(",") if v.strip())
        elif key == "strategies":
            values[key] = tuple(
                _parse_strategy(v.strip()) for v in value.split(",") if v.strip())
        else:
            raise ConfigError(f"line {lineno}: unknown run spec key {key!r}")
    if "algorithm" not in values:
        raise ConfigError("run spec must set 'algorithm'")
    if "graph" not in values:
        raise ConfigError("run spec must set 'graph'")
    spec = RunSpec(**values)
    validate_run_spec(spec)
    return spec


def validate_run_spec(spec: RunSpec) -> None:
    get_algorithm(spec.algorithm)
    if spec.trials < 1:
        raise ConfigError(f"trials must be >= 1, got {spec.trials}")
    if spec.algorithm == "anonymous" and spec.byzantine:
        raise ConfigError("anonymous runs converge to stability and admit no "
                          "Byzantine nodes")
    if spec.instrument and spec.algorithm != "anonymous":
        raise ConfigError("color instrumentation applies to anonymous runs only")
    if spec.ledger_out and not spec.instrument:
        raise ConfigError("ledger_out requires instrument = true")
    if spec.move_ceiling < 0 or spec.round_ceiling < 0:
        raise ConfigError("ceilings must be nonnegative (0 means default)")
    if spec.hold_rounds < 0:
        raise ConfigError("hold_rounds must be nonnegative")
    strategy_nodes = [node for node, _, _ in spec.strategies]
    if len(set(strategy_nodes)) != len(strategy_nodes):
        raise ConfigError("duplicate node in strategies")
    for node, kind, _ in spec.strategies:
        if node not in spec.byzantine:
            raise ConfigError(f"strategy assigned to non-Byzantine node {node}")
        if kind not in byz_mod.STRATEGY_KINDS:
            raise ConfigError(f"unknown Byzantine strategy {kind!r}")


def canonical_text(spec: RunSpec) -> str:
    """Stable serialization of the semantic fields (output paths excluded)."""
    skip = {"out", "trace_out", "ledger_out"}
    lines = []
    for key in sorted(RunSpec.__dataclass_fields__):
        if key in skip:
            continue
        value = getattr(spec, key)
        if key == "strategies":
            value = ",".join(
                f"{n}:{k}" + (f":{c}" if c is not None else "")
                for n, k, c in value)
        elif isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def spec_hash(spec: RunSpec) -> str:
    return hashlib.sha256(canonical_text(spec).encode()).hexdigest()[:12]


def build_graph(spec: RunSpec) -> Graph:
    """The spec's graph. A generated one is built once and shared by every
    trial of the spec (graphs are immutable); a graph file is read anew."""
    if spec.graph == "file":
        if not spec.graph_file:
            raise ConfigError("graph = file requires graph_file")
        with open(spec.graph_file, encoding="utf-8") as fh:
            return read_graph(fh)
    params = tuple((key, getattr(spec, key))
                   for key in ("n", "leaves", "rows", "cols", "p")
                   if getattr(spec, key) is not None)
    try:
        return _generated_graph(spec.graph, spec.graph_seed, params)
    except KeyError as exc:
        raise ConfigError(
            f"graph kind {spec.graph!r} is missing parameter {exc}") from None


@functools.lru_cache(maxsize=1)
def _generated_graph(kind: str, seed: int, params: tuple) -> Graph:
    return generate_graph(kind, seed=seed, **dict(params))


def default_move_ceiling(n: int) -> int:
    return 100 * 3 * n * n


def default_round_ceiling(g: Graph) -> int:
    d = g.max_degree
    # the formula degenerates to 0 on edgeless graphs; keep those runnable
    return max(100, 100 * d * g.n * math.ceil(math.e * (d + 1)))


def legitimacy_round_bound(g: Graph) -> int:
    """Dominant term of the high-probability convergence bound: the number of
    rounds (2 + sqrt(2)) * e * (max degree + 1) * n."""
    return math.ceil(
        (math.sqrt(2) / (math.sqrt(2) - 1)) * math.e * (g.max_degree + 1) * g.n)


def _load_script(path: str) -> list[list[tuple[int, Rule]]]:
    script = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            step = []
            for token in line.split(","):
                node_text, _, rule_text = token.strip().partition(":")
                step.append((int(node_text), rule_from_name(rule_text)))
            script.append(step)
    return script


def _make_trial_daemon(spec: RunSpec, g: Graph):
    script = _load_script(spec.script_file) if spec.script_file else None
    return make_daemon(spec.daemon, g.n, fairness=spec.fairness,
                       density=spec.density, script=script)


def _strategy_map(spec: RunSpec) -> dict:
    chosen = {node: ("silent", None) for node in spec.byzantine}
    for node, kind, cap in spec.strategies:
        chosen[node] = (kind, cap)
    return {
        node: byz_mod.make_strategy(kind, cap if cap is not None else spec.x_cap)
        for node, (kind, cap) in sorted(chosen.items())
    }


def run_trial(spec: RunSpec, trial_index: int, want_trace: bool = False,
              want_ledger: bool | None = None) -> TrialOutcome:
    """Run one seeded trial to convergence or a ceiling.

    Anonymous runs stop at the first stable configuration; Byzantine-tolerant
    runs stop at the first legitimate one (optionally confirmed for
    hold_rounds further rounds, where the first hit remains the reported
    convergence time, since legitimacy persists once reached).
    """
    validate_run_spec(spec)
    g = build_graph(spec)
    algo = get_algorithm(spec.algorithm)
    byz = frozenset(spec.byzantine)
    for node in byz:
        if not (0 <= node < g.n):
            raise ConfigError(f"Byzantine node {node} outside graph of size {g.n}")
    byz_runs = spec.algorithm == "byzantine"
    strategies = _strategy_map(spec)
    seed = derive_seed(spec.master_seed, trial_index)
    rng = RngStream(seed)
    daemon = _make_trial_daemon(spec, g)
    cfg = initial_configuration(g, algo.uses_x, spec.init, rng)

    move_ceiling = spec.move_ceiling or default_move_ceiling(g.n)
    round_ceiling = spec.round_ceiling or default_round_ceiling(g)
    fair_bound = daemon.fair_bound

    activity = Activity(algo, g, activable_map(algo, g, cfg, byz), byz)
    activable, tracker, ages = activity.activable, activity.tracker, activity.ages
    if want_ledger is None:
        want_ledger = spec.instrument
    ledger = ColorLedger(g, algo, cfg, activable) if want_ledger else None
    trace = Trace(initial=cfg, seed=seed) if want_trace else None
    # legitimacy and the monotone set: without faulty nodes that set is the
    # settled set of the whole graph, with them the safe alone set
    safe = (SafeAloneTracker(g, cfg, safe_zone(g, byz, 1), safe_zone(g, byz, 2))
            if byz_runs or spec.check_invariants else None)
    monotone = "safe alone set" if byz else "settled set"

    moves_total = 0
    moves_by_rule: dict[str, int] = {}
    first_hit: tuple[int, int] | None = None  # (moves, rounds) at first legitimacy
    hit_completed_rounds = 0
    converged = False
    ceiling_hit = False

    while True:
        if byz_runs:
            if safe.legitimate:
                if first_hit is None:
                    first_hit = (moves_total, tracker.rounds_elapsed)
                    hit_completed_rounds = tracker.rounds_completed
                if tracker.rounds_completed - hit_completed_rounds >= spec.hold_rounds:
                    converged = True
                    break
            elif first_hit is not None:
                raise InvariantViolation(
                    "legitimacy was lost after being reached")
        elif not activable:
            converged = True
            break
        if not activable:
            # a Byzantine run can stall only after reaching legitimacy
            converged = byz_runs and first_hit is not None
            break
        if moves_total >= move_ceiling or tracker.rounds_completed >= round_ceiling:
            if byz_runs and first_hit is not None:
                converged = True  # ceiling merely cut the confirmation window
            else:
                ceiling_hit = True
            break

        moves = daemon.select(g, cfg, activable, ages, rng)
        new_cfg, draws = apply_transition(algo, g, cfg, moves, rng, strategies,
                                          activable=activable)
        sorted_moves = tuple(sorted(moves, key=lambda m: m.node))
        moved = [m.node for m in sorted_moves]
        ended = activity.step(new_cfg, moved)
        lost = safe.update(new_cfg, moved) if safe is not None else None
        moves_total += len(sorted_moves)
        for m in sorted_moves:
            moves_by_rule[m.rule.value] = moves_by_rule.get(m.rule.value, 0) + 1

        if spec.check_invariants:
            if lost:
                raise InvariantViolation(f"{monotone} shrank: lost {lost}")
            if fair_bound is not None:
                worst = ages.oldest()
                if worst > fair_bound - 1:
                    raise InvariantViolation(
                        f"fairness bound {fair_bound} violated: a node waited "
                        f"{worst} transitions while activable")
            if algo.uses_x and tracker.rounds_completed >= 1:
                # x changes only at movers: scan every node when the first
                # round closes, and only the movers after that
                _check_degrees(
                    g, byz, new_cfg,
                    range(g.n) if ended and tracker.rounds_completed == 1
                    else moved)
        if ledger is not None:
            ledger.record(cfg, sorted_moves, new_cfg)
        if trace is not None:
            trace.steps.append(TraceStep(sorted_moves, draws, new_cfg))
            if ended:
                trace.round_ends.append(len(trace.steps))

        cfg = new_cfg

    if byz_runs:
        criterion = "legitimate"
        set_size = len(safe_alone_set(g, byz, cfg))
        moves_reported, rounds_reported = (
            first_hit if (converged and first_hit is not None)
            else (moves_total, tracker.rounds_elapsed))
    else:
        criterion = "stable"
        set_size = len(locally_alone_set(g, cfg))
        moves_reported, rounds_reported = moves_total, tracker.rounds_elapsed

    record = TrialRecord(
        trial=trial_index,
        seed=seed,
        moves=moves_reported,
        moves_by_rule=moves_by_rule,
        transitions=ages.transitions,
        rounds=rounds_reported,
        converged=converged,
        criterion=criterion,
        set_size=set_size,
        ceiling_hit=ceiling_hit,
    )
    return TrialOutcome(record=record, final=cfg, graph=g, trace=trace,
                        ledger=ledger)


def _check_degrees(g: Graph, byz: frozenset[int], cfg: Configuration,
                   nodes: Iterable[int]) -> None:
    """Once the first round is over, every non-faulty node's x is its degree."""
    for u in nodes:
        if u not in byz and cfg.x[u] != g.degree(u):
            raise InvariantViolation(
                f"node {u} has x={cfg.x[u]} != deg={g.degree(u)} after the "
                "first round")


def run_trials(spec: RunSpec, want_trace: bool = False) -> list[TrialOutcome]:
    """Run every trial of spec; an invariant violation is re-raised naming
    the spec hash, trial and seed, with a command line that reruns it."""
    outcomes = []
    for t in range(spec.trials):
        try:
            outcomes.append(run_trial(spec, t, want_trace=want_trace))
        except InvariantViolation as exc:
            raise InvariantViolation(
                f"spec {spec_hash(spec)} trial {t} seed "
                f"{derive_seed(spec.master_seed, t)}: {exc}",
                rerun=rerun_command(spec, t)) from exc
    return outcomes


def rerun_command(spec: RunSpec, trial_index: int) -> str:
    """A `mislab trial` command line that ends with the given trial of spec.

    A trial's stream depends only on master_seed and its index, so running
    trials 0..trial_index reproduces it as the last one.
    """
    import shlex  # only a failing run needs it; keeps it out of start-up

    args = ["mislab", "trial"]
    for line in canonical_text(spec).splitlines():
        key, _, value = line.partition(" = ")
        if key not in ("master_seed", "trials") and value not in ("", "None"):
            args += [f"--{key.replace('_', '-')}", shlex.quote(value)]
    args += ["--master-seed", str(spec.master_seed),
             "--trials", str(trial_index + 1)]
    return " ".join(args)


def write_trial_csv(spec: RunSpec, records: list[TrialRecord], fh: IO[str]) -> None:
    digest = spec_hash(spec)
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(TRIAL_COLUMNS)
    for r in sorted(records, key=lambda r: r.trial):
        writer.writerow((digest, r.trial, r.seed, r.moves, r.rounds,
                         str(r.converged).lower(), r.criterion, r.set_size,
                         str(r.ceiling_hit).lower()))


def _percentile(values: list[int], q: float) -> int:
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclass
class Aggregate:
    count: int
    mean: float
    std: float
    minimum: int
    maximum: int
    p50: int
    p95: int


def aggregate(values: list[int]) -> Aggregate:
    mean = statistics.fmean(values)
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    return Aggregate(
        count=len(values),
        mean=mean,
        std=std,
        minimum=min(values),
        maximum=max(values),
        p50=_percentile(values, 0.50),
        p95=_percentile(values, 0.95),
    )


@dataclass
class SweepRow:
    size: int
    delta: int
    trials: int
    converged: int
    ceiling_hits: int
    moves: Aggregate
    rounds: Aggregate
    moves_bound: int
    rounds_bound: float
    records: list[TrialRecord] = field(repr=False, default_factory=list)


def run_sweep(spec: RunSpec) -> list[SweepRow]:
    """Per-size trial batches with aggregate statistics.

    Sizes come from spec.sizes; each size rebuilds the graph with that many
    nodes (kind-specific parameters via sized_params) and runs spec.trials
    trials. Heavyweight per-transition checks are off here; dedicated trials
    cover them.
    """
    if not spec.sizes:
        raise ConfigError("sweep requires a nonempty 'sizes' list")
    if spec.graph == "file":
        raise ConfigError("sweeps need a generator graph kind, not a file")
    rows = []
    for size in spec.sizes:
        params = sized_params(spec.graph, size)
        sized = replace(
            spec,
            n=params.get("n"), leaves=params.get("leaves"),
            rows=params.get("rows"), cols=params.get("cols"),
            check_invariants=False, instrument=False,
        )
        outcomes = run_trials(sized)
        records = [o.record for o in outcomes]
        g = outcomes[0].graph
        rows.append(SweepRow(
            size=size,
            delta=g.max_degree,
            trials=len(records),
            converged=sum(1 for r in records if r.converged),
            ceiling_hits=sum(1 for r in records if r.ceiling_hit),
            moves=aggregate([r.moves for r in records]),
            rounds=aggregate([r.rounds for r in records]),
            moves_bound=3 * size * size,
            rounds_bound=math.e * (g.max_degree + 1) * size,
            records=records,
        ))
    return rows


def write_sweep_csv(spec: RunSpec, rows: list[SweepRow], fh: IO[str]) -> None:
    digest = spec_hash(spec)
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for row in rows:
        writer.writerow((
            digest, row.size, row.delta, row.trials, row.converged,
            row.ceiling_hits,
            f"{row.moves.mean:.4f}", f"{row.moves.std:.4f}",
            row.moves.minimum, row.moves.maximum, row.moves.p50, row.moves.p95,
            f"{row.rounds.mean:.4f}", f"{row.rounds.std:.4f}",
            row.rounds.minimum, row.rounds.maximum, row.rounds.p50, row.rounds.p95,
            row.moves_bound, f"{row.rounds_bound:.4f}",
        ))


def trial_csv_text(spec: RunSpec, records: list[TrialRecord]) -> str:
    buf = io.StringIO()
    write_trial_csv(spec, records, buf)
    return buf.getvalue()


def sweep_csv_text(spec: RunSpec, rows: list[SweepRow]) -> str:
    buf = io.StringIO()
    write_sweep_csv(spec, rows, buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Reference execution: the four-node worked example, fully scripted.
# ---------------------------------------------------------------------------

REFERENCE_EDGES = ((0, 1), (0, 2), (1, 2), (2, 3))

_W = Rule.TRY_WITHDRAW
_C = Rule.CANDIDACY

REFERENCE_SCRIPT: tuple = (
    ((0, _C, None), (1, _C, None), (2, _C, None), (3, _C, None)),
    ((0, _W, 0), (1, _W, 0)),
    ((0, _W, 0), (1, _W, 0), (2, _W, 1)),
    ((0, _W, 1), (1, _W, 1)),
    ((0, _C, None), (1, _C, None)),
    ((0, _W, 0), (1, _W, 0)),
    ((0, _W, 0), (1, _W, 0)),
    ((0, _W, 1),),
)

REFERENCE_CONFIGS = (
    (True, True, True, True),    # after t1
    (True, True, True, True),    # t2: both coins fail
    (True, True, False, True),   # t3: only node 2 drops
    (False, False, False, True),  # t4
    (True, True, False, True),   # t5: 0 and 1 candidate again
    (True, True, False, True),   # t6
    (True, True, False, True),   # t7
    (False, True, False, True),  # t8: stable
)

REFERENCE_FRESH_SETS = {1: frozenset({0, 1, 2, 3}), 5: frozenset({0, 1})}

REFERENCE_MOVE_COLORS = ((1, 1, 1, 1), (1, 1), (1, 1, 1), (1, 1),
                         (5, 5), (5, 5), (5, 5), (5,))


@dataclass
class ReplayReport:
    ok: bool
    problems: list[str]
    trace: Trace
    ledger: ColorLedger


def reference_replay() -> ReplayReport:
    """Replay the scripted four-node execution and verify every recorded fact:
    the configuration after each transition, terminal stability, the settled
    set {1, 3}, and the ledger's fresh sets, move colors, and color fates."""
    from .engine import is_stable

    g = make_graph(4, REFERENCE_EDGES)
    algo = get_algorithm("anonymous")
    cfg0 = Configuration((False,) * 4)
    trace = run_script(algo, g, cfg0, REFERENCE_SCRIPT)
    ledger = ledger_from_trace(g, algo, trace)
    problems = []

    for i, (step, expected) in enumerate(zip(trace.steps, REFERENCE_CONFIGS), start=1):
        if step.config.s != expected:
            problems.append(f"configuration after t{i} is {step.config.s}, "
                            f"expected {expected}")
    if not is_stable(algo, g, trace.final):
        problems.append("final configuration is not stable")
    settled = locally_alone_set(g, trace.final)
    if settled != frozenset({1, 3}):
        problems.append(f"settled set is {sorted(settled)}, expected [1, 3]")
    if ledger.fresh_sets != REFERENCE_FRESH_SETS:
        problems.append(f"fresh-up sets {ledger.fresh_sets} differ from "
                        f"{REFERENCE_FRESH_SETS}")
    if tuple(ledger.move_colors) != REFERENCE_MOVE_COLORS:
        problems.append(f"move colors {ledger.move_colors} differ from "
                        f"{REFERENCE_MOVE_COLORS}")
    if not ledger.all_dead():
        problems.append("some color is still live at the end of the replay")
    for color, died, moves, success in ((1, 4, 7, True), (5, 8, 5, True)):
        r = ledger.records.get(color)
        if r is None:
            problems.append(f"color {color} missing from the ledger")
        elif (r.died, r.withdrawal_moves, r.success) != (died, moves, success):
            problems.append(
                f"color {color}: (died={r.died}, moves={r.withdrawal_moves}, "
                f"success={r.success}) expected ({died}, {moves}, {success})")
    if trace.total_moves() != 18:
        problems.append(f"total executed moves {trace.total_moves()}, expected 18")
    return ReplayReport(ok=not problems, problems=problems, trace=trace,
                        ledger=ledger)
