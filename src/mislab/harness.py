"""Experiment runner: run specs, single trials, size sweeps, CSV outputs.

A run spec is a flat "key = value" text file (grammar in the README). The
same spec plus the same master seed always reproduces byte-identical CSV.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import operator
import re
import typing

try:  # as `random` takes sha512: without loading OpenSSL through hashlib
    from _sha256 import sha256
except ImportError:  # renamed _sha2 in Python 3.12
    from hashlib import sha256

from . import byzantine as byz_mod
from .algorithms import ALGORITHMS, AnonymousMIS, ByzantineMIS, get_algorithm
from .analysis import (
    ColorLedger,
    SafeAloneTracker,
    locally_alone_set,
    write_ledger_csv,
)
from .daemons import DAEMON_KINDS, ScriptStep, make_daemon
from .engine import (
    BYZ,
    INITIAL_PRESETS,
    Activity,
    Configuration,
    TraceWriter,
    derive_seed,
    initial_configuration,
    is_stable,
)
from .errors import (ConfigError, InvariantViolation, Record, known_kind,
                     read_text, replace)
from .graphs import (
    GENERATORS,
    GRAPH_KINDS,
    Graph,
    check_size,
    generate_graph,
    make_graph,
    read_graph,
    safe_zone,
    sized_params,
)

TRIAL_COLUMNS = ("spec_hash", "trial", "seed", "moves", "rounds", "converged",
                 "criterion", "set_size", "ceiling_hit")

SWEEP_COLUMNS = ("spec_hash", "n", "delta", "trials", "converged", "ceiling_hits",
                 "mean_moves", "std_moves", "min_moves", "max_moves",
                 "p50_moves", "p95_moves",
                 "mean_rounds", "std_rounds", "min_rounds", "max_rounds",
                 "p50_rounds", "p95_rounds",
                 "moves_bound_3n2", "rounds_bound_linear")


class TrialRecord(Record):
    """Outcome of one trial.

    moves/rounds are the counts at convergence, the first legitimate
    configuration; moves_by_rule and transitions tally the whole run, which
    only differs when a confirmation window extends it.
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


class TrialOutcome(Record):
    record: TrialRecord
    final: Configuration
    graph: Graph
    ledger: ColorLedger | None = None


def _parse_bool(key: str, value: str) -> bool:
    if value.lower() in ("true", "yes", "1"):
        return True
    if value.lower() in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def _number(kind: type, key: str, value: str):
    """int(value) or float(value), as a ConfigError naming the key on failure."""
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(
            f"{key}: expected {'an integer' if kind is int else 'a number'}, "
            f"got {value!r}") from None


def _parse_strategy(key: str, token: str) -> tuple[int, str, int | None]:
    parts = token.split(":")
    if len(parts) not in (2, 3):
        raise ConfigError(f"strategy entries are node:kind[:x_cap], got {token!r}")
    cap = _number(int, key, parts[2]) if len(parts) == 3 else None
    return _number(int, key, parts[0]), parts[1], cap


def _optional(parse):
    """parse, reading "None" as unset, as canonical_text writes it."""
    return lambda key, value: None if value == "None" else parse(key, value)


def _list(parse):
    """parse for each item of a comma-separated list, as a tuple."""
    return lambda key, value: tuple(
        parse(key, v.strip()) for v in value.split(",") if v.strip())


def output_name(key: str, value: str) -> str:
    """An output's file name. "" names no file, and is refused rather than
    read as no output: an unset output is None."""
    if not value:
        raise ConfigError(f"{key}: an output name cannot be empty; leave "
                          f"{key} unset to write none")
    return value


_int, _float = functools.partial(_number, int), functools.partial(_number, float)
_text = lambda key, value: value
_name = _optional(_text)

_REQUIRED = object()  # the default of a key that every spec must set
#: Every run-spec key, in flag order: its default (_REQUIRED: none), its
#: parser (key, text) -> value, and the choices that read it, None for an
#: output, which no run reads. A run chooses an algorithm, a graph kind, a
#: daemon and a command, and reads a key if its choice of each kind that
#: the key's choices name is among them: () is every run.
SPEC_KEYS = {
    "algorithm": (_REQUIRED, _text, ()),
    "graph": (_REQUIRED, _text, ()),
    **{key: (None, _optional(_float if key == "p" else _int),
             tuple(kind for kind, row in GENERATORS.items() if key in row[0]))
       for key in ("n", "leaves", "rows", "cols", "p")},
    "graph_seed": (0, _int, ("erdos_renyi", "random_tree")),
    "graph_file": (None, _name, ("file",)),
    "daemon": ("synchronous", _text, ()),
    "fairness": (None, _optional(_int), ("aged_fair",)),
    "density": (0.5, _float, ("random_subset",)),
    "script_file": (None, _name, ("scripted",)),
    "init": ("random", _text, ()),
    "trials": (1, _int, ()),
    "master_seed": (0, _int, ()),
    "move_ceiling": (0, _int, ()),
    "round_ceiling": (0, _int, ()),
    "byzantine": ((), _list(_int), ("byzantine",)),
    "strategies": ((), _list(_parse_strategy), ("byzantine",)),
    "x_cap": (byz_mod.DEFAULT_X_CAP, _int, ("byzantine",)),
    "hold_rounds": (0, _int, ("byzantine",)),
    "instrument": (False, _parse_bool, ("anonymous", "trial")),  # a sweep turns
    "check_invariants": (True, _parse_bool, ("trial",)),         # these two off
    "sizes": ((), _list(_int), ("sweep",)),
    "out": (None, _optional(output_name), None),
    "trace_out": (None, _optional(output_name), None),
    "ledger_out": (None, _optional(output_name), None),
}
_CHOICE_KINDS = (ALGORITHMS, (*GRAPH_KINDS, "file"), DAEMON_KINDS, ("trial", "sweep"))
#: the keys canonical text writes, sorted -> the kinds of choice their readers name
_HASHED = {key: [i for i, kinds in enumerate(_CHOICE_KINDS)
                 if any(kind in SPEC_KEYS[key][2] for kind in kinds)]
           for key in sorted(SPEC_KEYS) if SPEC_KEYS[key][2] is not None}

#: Everything that determines an experiment, seeds included: two specs that
#: compare equal produce identical results.
RunSpec = type("RunSpec", (Record,), {
    "__module__": __name__, "__annotations__": dict.fromkeys(SPEC_KEYS, "object"),
    **{key: default for key, (default, _, _) in SPEC_KEYS.items()
       if default is not _REQUIRED}}, frozen=True)


def _read_keys(spec: RunSpec, command: str) -> set[str]:
    """The keys a `command` run of spec reads; a sweep's sizes stand in for
    the size parameters."""
    choices = (spec.algorithm, spec.graph, spec.daemon, command)
    keys = {key for key, kinds in _HASHED.items()
            if all(choices[i] in SPEC_KEYS[key][2] for i in kinds)}
    if command == "sweep" and spec.graph in GENERATORS:
        keys -= sized_params(spec.graph, 1).keys()
    return keys


#: a '#' that opens a comment: at the start of a line or after whitespace,
#: so a value such as "g#1.txt" keeps its '#'
_COMMENT = re.compile(r"(?<!\S)#")


def _uncommented(line: str) -> str:
    """line without its comment, stripped."""
    return _COMMENT.split(line, 1)[0].strip()


def parse_run_spec(text: str, flags: typing.Mapping[str, str] = {},
                   command: str | None = None) -> RunSpec:
    """Parse the flat one-key-per-line format ('#' at the start of a line or
    after whitespace starts a comment), then `flags`, key -> value text
    taken whole, which override the text; validate it for `command`."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _uncommented(raw)
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in SPEC_KEYS:
            raise ConfigError(f"line {lineno}: unknown run spec key {key!r}")
        values[key] = SPEC_KEYS[key][1](key, value)
    for key, value in flags.items():
        values[key] = SPEC_KEYS[key][1](key, value.strip())
    for key, (default, _, _) in SPEC_KEYS.items():
        if default is _REQUIRED and key not in values:
            raise ConfigError(f"run spec must set {key!r}")
    spec = RunSpec(**values)
    validate_run_spec(spec, command)
    return spec


def validate_run_spec(spec: RunSpec, command: str | None = None) -> None:
    """Reject a spec that could not run as `command` (None: as either), as
    far as that shows without building its graph, before any trial starts."""
    get_algorithm(spec.algorithm)
    if known_kind(spec.graph, (*GRAPH_KINDS, "file"), "graph kind") == "file":
        if not spec.graph_file:
            raise ConfigError("graph = file requires graph_file")
    else:
        # a sweep sets the size parameters of each size itself, even of none
        sized = sized_params(spec.graph, 1) if command == "sweep" else {}
        for size in spec.sizes:
            sized = sized_params(spec.graph, size)
        for name in GENERATORS[spec.graph][0]:
            if getattr(spec, name) is None and (command == "trial"
                                                or name not in sized):
                raise ConfigError(
                    f"graph kind {spec.graph!r} is missing parameter {name!r}")
    # a file name must read back from the spec's canonical text as itself
    for key in ("graph_file", "script_file"):
        name = getattr(spec, key)
        if name == "None":
            raise ConfigError(f"{key}: 'None' cannot be written in a run spec: "
                              "canonical text writes an unset name as None")
        if name and (name != name.strip() or len(name.splitlines()) > 1
                     or _COMMENT.search(name)):
            raise ConfigError(
                f"{key}: {name!r} cannot be written in a run spec: it may "
                "hold no line break, no whitespace at either end and no '#' "
                "at its start or after whitespace")
    known_kind(spec.daemon, DAEMON_KINDS, "daemon kind")
    # a key set under an algorithm or daemon that does not read it; a sweep
    # accepts, and turns off, the keys only trials read
    for key, message in (
            ("byzantine", "anonymous runs converge to stability and admit no "
                          "Byzantine nodes"),
            ("instrument", "color instrumentation applies to anonymous runs only"),
            ("script_file", "daemon = scripted and script_file go together")):
        if getattr(spec, key) and key not in _read_keys(spec, "trial"):
            raise ConfigError(message)
    if spec.daemon == "scripted" and not spec.script_file:
        raise ConfigError("daemon = scripted requires script_file")
    known_kind(spec.init, INITIAL_PRESETS, "initial preset")
    if not 0.0 < spec.density <= 1.0:
        raise ConfigError(f"density must be in (0,1], got {spec.density}")
    if spec.fairness is not None and spec.fairness < 1:
        raise ConfigError(f"fairness bound must be >= 1, got {spec.fairness}")
    if spec.trials < 1:
        raise ConfigError(f"trials must be >= 1, got {spec.trials}")
    # random.Random(-k) seeds the stream of random.Random(k), and a trial
    # seed keeps master_seed mod 2**64: other values would alias a valid seed
    if spec.graph_seed < 0:
        raise ConfigError(f"graph_seed must be nonnegative, got {spec.graph_seed}")
    if not 0 <= spec.master_seed < 2**64:
        raise ConfigError(
            f"master_seed must be in [0, 2**64), got {spec.master_seed}")
    if spec.move_ceiling < 0 or spec.round_ceiling < 0:
        raise ConfigError("ceilings must be nonnegative (0 means default)")
    if spec.hold_rounds < 0:
        raise ConfigError("hold_rounds must be nonnegative")
    if spec.x_cap < 0 or any(cap is not None and cap < 0
                             for _, _, cap in spec.strategies):
        raise ConfigError("x caps must be nonnegative")
    if len(set(spec.byzantine)) != len(spec.byzantine):
        raise ConfigError("duplicate node in byzantine")
    strategy_nodes = [node for node, _, _ in spec.strategies]
    if len(set(strategy_nodes)) != len(strategy_nodes):
        raise ConfigError("duplicate node in strategies")
    for node, kind, _ in spec.strategies:
        if node not in spec.byzantine:
            raise ConfigError(f"strategy assigned to non-Byzantine node {node}")
        known_kind(kind, byz_mod.STRATEGY_KINDS, "Byzantine strategy")


def _spec_text(value, sep: str = ",") -> str:
    """A field value as run-spec text: list items comma-separated, the parts
    of a tuple item colon-separated, an unset part left out."""
    if isinstance(value, tuple):
        return sep.join(_spec_text(v, ":") for v in value if v is not None)
    return str(value)


def canonical_text(spec: RunSpec) -> str:
    """Stable serialization of the semantic keys (output paths excluded)."""
    return "".join(f"{key} = {_spec_text(getattr(spec, key))}\n" for key in _HASHED)


def spec_hash(spec: RunSpec, command: str = "trial") -> str:
    """The canonical text's digest, with every key that a `command` run of
    spec does not read at its default: one experiment, one hash."""
    read = _read_keys(spec, command)
    spec = replace(spec, **{k: SPEC_KEYS[k][0] for k in _HASHED if k not in read})
    return sha256(canonical_text(spec).encode()).hexdigest()[:12]


def build_graph(spec: RunSpec) -> Graph:
    """The spec's graph: generated from its kind, seed and parameters, or
    read from graph_file."""
    if spec.graph == "file":
        return read_graph(io.StringIO(read_text(spec.graph_file)))
    return generate_graph(spec.graph, seed=spec.graph_seed, **{
        name: getattr(spec, name) for name in GENERATORS[spec.graph][0]})


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


#: a script entry's draw field: "-", or no field at all, means none
_DRAWS = {"-": None, "0": 0, "1": 1}


def _load_script(lines: typing.Iterable[str], source: str, n: int, algo,
                 byzantine: frozenset[int]) -> tuple[ScriptStep, ...]:
    """The move sets of a script, one per non-blank line of `lines`, each a
    comma-separated list of node:rule[:draw] entries: a trace line's move
    field is one. Every move names a node of the graph and a rule that node
    can have: one of algo's rules for an honest node, `byz` for a faulty
    one. Only algo's random rule takes a 0/1 draw. A node listed twice in a
    line must name the same move both times, and counts once. Each set is
    emitted as the scripted daemon replays it (`ScriptStep`): the nodes
    ascending, their rules, and a draw per random-rule move, None where the
    script gives none. Errors name `source` and the line."""
    # a name read from the file is mapped to the engine's own object
    honest = {rule: rule for rule in algo.rules}
    faulty = {BYZ: BYZ}
    script = []
    for lineno, raw in enumerate(lines, start=1):
        line = _uncommented(raw)
        if not line:
            continue
        where = f"{source} line {lineno}"
        step = {}
        for token in line.split(","):
            node_text, _, rest = token.strip().partition(":")
            name, has_draw, draw_text = rest.partition(":")
            node = _number(int, where, node_text)
            if not 0 <= node < n:
                raise ConfigError(
                    f"{where}: node {node} outside graph of size {n}")
            rules = faulty if node in byzantine else honest
            if name not in rules:
                raise ConfigError(f"{where}: node {node} has no rule {name!r}; "
                                  f"expected one of {tuple(rules)}")
            if has_draw and draw_text not in _DRAWS:
                raise ConfigError(
                    f"{where}: draw must be 0, 1 or -, got {draw_text!r}")
            draw = _DRAWS[draw_text] if has_draw else None
            if draw is not None and rules[name] is not algo.random_rule:
                raise ConfigError(
                    f"{where}: rule {name!r} draws nothing, got draw {draw}")
            entry = (node, rules[name], draw)
            if step.setdefault(node, entry) != entry:
                raise ConfigError(
                    f"{where}: node {node} is listed twice with different moves")
        entries = sorted(step.values())
        script.append((tuple(node for node, _, _ in entries),
                       tuple(rule for _, rule, _ in entries),
                       tuple(d for _, rule, d in entries
                             if rule is algo.random_rule)))
    return tuple(script)


def _check_byzantine(byzantine: tuple[int, ...], n: int) -> None:
    for node in byzantine:
        if not 0 <= node < n:
            raise ConfigError(f"Byzantine node {node} outside graph of size {n}")


def _strategy_map(spec: RunSpec) -> dict:
    chosen = {node: ("silent", None) for node in spec.byzantine}
    for node, kind, cap in spec.strategies:
        chosen[node] = (kind, cap)
    return {
        node: byz_mod.make_strategy(kind, cap if cap is not None else spec.x_cap)
        for node, (kind, cap) in sorted(chosen.items())
    }


class Plan(Record, frozen=True):
    """What every trial of a spec shares, built once by `prepare`. The
    strategies hold only their x cap, so trials share them; a daemon keeps
    per-trial state, so each trial makes its own (from `script` if scripted).
    """

    graph: Graph
    algorithm: ByzantineMIS | AnonymousMIS
    strategies: dict[int, byz_mod.Strategy]
    script: tuple[ScriptStep, ...] | None
    #: the distance-1 and distance-2 safe zones; None if no trial reads them
    zones: tuple[frozenset[int], frozenset[int]] | None
    move_ceiling: int
    round_ceiling: int
    #: each node's number as trace text, filled by the spec's first traced
    #: trial: its other trials and their writers share it
    labels: list[str]


def prepare(spec: RunSpec) -> Plan:
    """Validate spec, build (or read) its graph, check the Byzantine nodes
    and the script against that graph, and compute what its trials share.
    Every failure is a ConfigError raised before any trial runs."""
    validate_run_spec(spec, "trial")
    g = build_graph(spec)
    _check_byzantine(spec.byzantine, g.n)
    script = spec.script_file and io.StringIO(read_text(spec.script_file))
    return _plan(spec, g, script, spec.script_file)


def _plan(spec: RunSpec, g: Graph, script: typing.Iterable[str] | None,
          source: str | None) -> Plan:
    """What spec's trials share on g; `source` names the script's lines."""
    algo = get_algorithm(spec.algorithm)
    byz = frozenset(spec.byzantine)
    tracked = spec.algorithm == "byzantine" or spec.check_invariants
    return Plan(
        graph=g,
        algorithm=algo,
        strategies=_strategy_map(spec),
        script=_load_script(script, source, g.n, algo, byz) if script else None,
        zones=(safe_zone(g, byz, 1), safe_zone(g, byz, 2)) if tracked else None,
        move_ceiling=spec.move_ceiling or default_move_ceiling(g.n),
        round_ceiling=spec.round_ceiling or default_round_ceiling(g),
        labels=[],
    )


def run_trial(spec: RunSpec, trial_index: int,
              trace_to: typing.IO[str] | None = None,
              plan: Plan | None = None) -> TrialOutcome:
    """Run one seeded trial to convergence or a ceiling.

    A trial converges at its first legitimate configuration: legitimate
    around the faulty nodes for the Byzantine algorithm, stable for the
    anonymous one. It runs hold_rounds further rounds to confirm that,
    which only a Byzantine run can do, since no transition follows
    stability; the first hit remains the reported convergence time, since
    legitimacy persists once reached.

    With check_invariants, every transition is checked. A fair daemon's
    bound F is checked only where it can fail: an age grows by at most one
    per transition, so after a scan that reads worst age w at transition
    t no age can reach F before transition t + F - w, where the next scan
    is made; the first scan follows transition F. The first violation is
    still raised at its transition, with the same age and message.

    trace_to receives the execution, encoded as each transition happens,
    with the node labels of the plan, built by the spec's first traced
    trial. The trial draws from a stream of the daemon's `stream` type,
    seeded by master_seed and the trial index. plan is `prepare(spec)`,
    shared by the spec's trials; without it the trial prepares its own.
    """
    if plan is None:
        plan = prepare(spec)
    g, algo = plan.graph, plan.algorithm
    byz = frozenset(spec.byzantine)
    seed = derive_seed(spec.master_seed, trial_index)
    daemon = make_daemon(spec.daemon, g.n, fairness=spec.fairness,
                         density=spec.density, script=plan.script)
    rng = daemon.stream(seed)
    cfg = initial_configuration(g, algo.uses_x, spec.init, rng)

    move_ceiling, round_ceiling = plan.move_ceiling, plan.round_ceiling
    # every age is 0 at the start, so none can reach the fairness bound
    # before transition fair_bound
    fair_bound = next_scan = daemon.fair_bound

    activity = Activity(algo, g, cfg, plan.strategies)
    activable, tracker = activity.activable, activity.tracker
    x, deg = activity.x, activity.deg
    ledger = ColorLedger(activity) if spec.instrument else None
    writer = None
    if trace_to is not None:
        labels = plan.labels
        if not labels:
            labels.extend(map(str, range(g.n)))
        writer = TraceWriter(trace_to, cfg, labels)
    # the monotone set, and a Byzantine run's legitimacy: without faulty
    # nodes that set is the settled set of the whole graph, with them the
    # safe alone set; an anonymous run's legitimacy is its stability
    safe = (SafeAloneTracker(g, activity, *plan.zones)
            if plan.zones is not None else None)
    monotone = "safe alone set" if byz else "settled set"
    if spec.algorithm == "byzantine":
        criterion, legitimate = "legitimate", lambda: safe.legitimate
    else:
        criterion, legitimate = "stable", lambda: not activable

    moves_total = 0
    moves_by_rule: dict[str, int] = {}
    first_hit: tuple[int, int] | None = None  # (moves, rounds) at first legitimacy
    hit_completed_rounds = 0
    ceiling_hit = False

    while True:
        if legitimate():
            if first_hit is None:
                first_hit = (moves_total, tracker.rounds_elapsed)
                hit_completed_rounds = tracker.rounds_completed
            if tracker.rounds_completed - hit_completed_rounds >= spec.hold_rounds:
                break
        elif first_hit is not None:
            raise InvariantViolation("legitimacy was lost after being reached")
        if not activable:
            break
        if moves_total >= move_ceiling or tracker.rounds_completed >= round_ceiling:
            # a ceiling after the first hit merely cuts the confirmation window
            ceiling_hit = first_hit is None
            break

        nodes = daemon.select(g, activity, activable, rng)
        rules, draws, ended = activity.transition(nodes, rng)
        lost = safe.update(activity, activity.touched) if safe is not None else None
        moves_total += len(nodes)
        for rule in rules:
            moves_by_rule[rule] = moves_by_rule.get(rule, 0) + 1

        if spec.check_invariants:
            if lost:
                raise InvariantViolation(f"{monotone} shrank: lost {lost}")
            if fair_bound is not None and activity.transitions >= next_scan:
                worst = activity.oldest_age()
                if worst > fair_bound - 1:
                    raise InvariantViolation(
                        f"fairness bound {fair_bound} violated: a node waited "
                        f"{worst} transitions while activable")
                # an age grows by at most one per transition, so none can
                # reach the bound before worst has grown to it
                next_scan = activity.transitions + fair_bound - worst
            if algo.uses_x and tracker.rounds_completed >= 1:
                # once the first round is over, every non-faulty x is the
                # degree; x changes only at movers, so scan every node when
                # that round closes, and only the movers after that
                for u in (range(g.n) if ended and tracker.rounds_completed == 1
                          else nodes):
                    if u not in byz and x[u] != deg[u]:
                        raise InvariantViolation(
                            f"node {u} has x={x[u]} != deg={deg[u]} "
                            "after the first round")
        if ledger is not None:
            ledger.record(nodes, rules)
        if writer is not None:
            writer.record(nodes, rules, draws, activity)

    cfg = activity.snapshot()
    moves, rounds = first_hit or (moves_total, tracker.rounds_elapsed)
    record = TrialRecord(
        trial=trial_index,
        seed=seed,
        moves=moves,
        moves_by_rule=moves_by_rule,
        transitions=activity.transitions,
        rounds=rounds,
        converged=first_hit is not None,
        criterion=criterion,
        # the safe alone set; without faulty nodes it is the settled set,
        # the nodes with s[u] and up[u] = 0: s[u] > up[u]
        set_size=(len(safe.alone) if safe is not None
                  else sum(map(operator.gt, activity.s, activity.up))),
        ceiling_hit=ceiling_hit,
    )
    return TrialOutcome(record=record, final=cfg, graph=g, ledger=ledger)


def run_trials(spec: RunSpec, trace_to: typing.IO[str] | None = None,
               command: str = "trial") -> typing.Iterator[TrialOutcome]:
    """Prepare spec once and run every trial of it, handing on each outcome
    as its trial ends, so a caller that keeps only what it needs holds one
    trial's state at a time. Their traces stream one after another to
    trace_to when it is given; an invariant violation is re-raised naming
    the spec hash of the `command` run, the trial and the seed, with a
    command line that reruns it."""
    plan = prepare(spec)
    for t in range(spec.trials):
        try:
            outcome = run_trial(spec, t, trace_to=trace_to, plan=plan)
        except InvariantViolation as exc:
            raise InvariantViolation(
                f"spec {spec_hash(spec, command)} trial {t} seed "
                f"{derive_seed(spec.master_seed, t)}: {exc}",
                rerun=rerun_command(spec, t)) from exc
        yield outcome


def rerun_command(spec: RunSpec, trial_index: int) -> str:
    """A `mislab trial` command line that ends with the given trial of spec.

    A trial's stream depends only on master_seed and its index, so running
    trials 0..trial_index reproduces it as the last one. Only the keys a
    trial reads are written, so the line hashes like the failing run.
    """
    import shlex  # only a failing run needs it; keeps it out of start-up

    args = ["mislab", "trial"]
    read = _read_keys(spec, "trial") - {"master_seed", "trials"}
    for line in canonical_text(spec).splitlines():
        key, _, value = line.partition(" = ")
        if key in read and value not in ("", "None"):
            args += [f"--{key.replace('_', '-')}", shlex.quote(value)]
    args += ["--master-seed", str(spec.master_seed),
             "--trials", str(trial_index + 1)]
    return " ".join(args)


def _cell(value):
    """A CSV cell: a bool in lower case, a float with four decimals, anything
    else as it is."""
    if isinstance(value, bool):
        return str(value).lower()
    return f"{value:.4f}" if isinstance(value, float) else value


def _csv_text(spec: RunSpec, command: str, columns: tuple[str, ...],
              rows: typing.Iterable[typing.Mapping]) -> str:
    """The CSV of rows under columns: the spec hash of the `command` run
    first, then each row's values read by the names in columns[1:]."""
    digest = spec_hash(spec, command)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([digest, *(_cell(row[name]) for name in columns[1:])])
    return buf.getvalue()


def trial_csv_text(spec: RunSpec, records: list[TrialRecord]) -> str:
    """One row per record, by trial; the columns are TrialRecord fields."""
    return _csv_text(spec, "trial", TRIAL_COLUMNS,
                     map(vars, sorted(records, key=lambda r: r.trial)))


def _percentile(values: list[int], q: float) -> int:
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _sqrt_ratio(num: int, den: int) -> float:
    """sqrt(num / den) for integers num >= 0 and den > 0, correctly rounded:
    the integer root of num / den scaled by 4**k to at least 55 bits, its
    last bit set if inexact (round to odd), then divided by 2**k."""
    k = max(0, 56 - (num.bit_length() - den.bit_length()) // 2)
    num <<= 2 * k
    root = math.isqrt(num // den)
    return (root | (root * root * den != num)) / (1 << k)


def _summary(name: str, values: list[int]) -> dict[str, float | int]:
    """The six sweep columns that summarize values of name: its mean, std,
    min, max, p50 and p95."""
    n, total = len(values), sum(values)
    # the sample std from exact integer sums, as statistics.stdev has it
    spread = n * sum(v * v for v in values) - total * total
    return {f"mean_{name}": math.fsum(values) / n,
            f"std_{name}": _sqrt_ratio(spread, n * (n - 1)) if n > 1 else 0.0,
            f"min_{name}": min(values), f"max_{name}": max(values),
            f"p50_{name}": _percentile(values, 0.50),
            f"p95_{name}": _percentile(values, 0.95)}


def run_sweep(spec: RunSpec) -> list[dict[str, float | int]]:
    """Per-size trial batches with summary statistics.

    Sizes come from spec.sizes; each size is prepared in its turn, with a
    graph of that many nodes (kind-specific parameters via sized_params), and
    runs spec.trials trials. `check_invariants` and `instrument` are off
    here, whatever the spec says; dedicated trials cover them. A row is a
    dict keyed by SWEEP_COLUMNS[1:], in that order.
    """
    if not spec.sizes:
        raise ConfigError("sweep requires a nonempty 'sizes' list")
    if spec.graph == "file":
        raise ConfigError("sweeps need a generator graph kind, not a file")
    # a generator builds exactly `size` nodes, so the smallest size decides
    # before any trial whether every Byzantine node fits
    _check_byzantine(spec.byzantine, min(spec.sizes))
    for size in spec.sizes:
        check_size(spec.graph, sized_params(spec.graph, size), f"sizes item {size}")
    rows = []
    for size in spec.sizes:
        sized = replace(spec, **sized_params(spec.graph, size),
                        check_invariants=False, instrument=False)
        records = []
        for outcome in run_trials(sized, command="sweep"):
            records.append(outcome.record)
        delta = outcome.graph.max_degree
        rows.append({
            "n": size, "delta": delta, "trials": len(records),
            "converged": sum(1 for r in records if r.converged),
            "ceiling_hits": sum(1 for r in records if r.ceiling_hit),
            **_summary("moves", [r.moves for r in records]),
            **_summary("rounds", [r.rounds for r in records]),
            "moves_bound_3n2": 3 * size * size,
            "rounds_bound_linear": math.e * (delta + 1) * size,
        })
    return rows


def sweep_csv_text(spec: RunSpec, rows: list[dict[str, float | int]]) -> str:
    return _csv_text(spec, "sweep", SWEEP_COLUMNS, rows)


# ---------------------------------------------------------------------------
# Reference execution: the four-node worked example, fully scripted.
# ---------------------------------------------------------------------------

REFERENCE_EDGES = ((0, 1), (0, 2), (1, 2), (2, 3))

#: the example's trace from all nodes down; the move fields of lines 1-8
#: are its script
REFERENCE_TRACE = """\
0 - 0000
1 0:candidacy:-,1:candidacy:-,2:candidacy:-,3:candidacy:- 1111
2 0:withdrawal?:0,1:withdrawal?:0 1111
3 0:withdrawal?:0,1:withdrawal?:0,2:withdrawal?:1 1101
4 0:withdrawal?:1,1:withdrawal?:1 0001
5 0:candidacy:-,1:candidacy:- 1101
6 0:withdrawal?:0,1:withdrawal?:0 1101
7 0:withdrawal?:0,1:withdrawal?:0 1101
8 0:withdrawal?:1 0101
"""

#: the example's color ledger: both colors die, and both succeed
REFERENCE_LEDGER = """\
color,size,born,died,withdrawal_moves,success
1,4,1,4,7,True
5,2,5,8,5,True
"""


class ReplayReport(Record):
    ok: bool
    problems: list[str]
    #: the replay's trace, as `mislab trial --trace-out` writes it
    trace: str
    outcome: TrialOutcome


def _line_mismatches(output: str, got: str, expected: str) -> list[str]:
    """One problem per line, numbered from 0, where `got` and `expected`
    differ; a missing line reads None."""
    pairs = itertools.zip_longest(got.splitlines(), expected.splitlines())
    return [f"{output} line {i} is {found!r}, expected {want!r}"
            for i, (found, want) in enumerate(pairs) if found != want]


def reference_replay() -> ReplayReport:
    """Run the scripted four-node execution as one instrumented trial and
    compare its trace and color ledger with the stored ones line by line;
    the final configuration must also be stable with settled set {1, 3}."""
    g = make_graph(4, REFERENCE_EDGES)
    script = [line.split()[1] for line in REFERENCE_TRACE.splitlines()[1:]]
    # the plan carries the graph and the script; the spec only what a
    # trial reads besides them
    spec = RunSpec(algorithm="anonymous", graph="file", daemon="scripted",
                   init="all_bot", instrument=True)
    plan = _plan(spec, g, script, "reference trace")
    buf = io.StringIO()
    outcome = run_trial(spec, 0, trace_to=buf, plan=plan)
    trace = buf.getvalue()
    ledger = io.StringIO()
    write_ledger_csv([outcome.ledger], ledger)
    problems = (_line_mismatches("trace", trace, REFERENCE_TRACE)
                + _line_mismatches("ledger", ledger.getvalue(), REFERENCE_LEDGER))
    if not is_stable(plan.algorithm, g, outcome.final):
        problems.append("final configuration is not stable")
    settled = locally_alone_set(g, outcome.final)
    if settled != frozenset({1, 3}):
        problems.append(f"settled set is {sorted(settled)}, expected [1, 3]")
    return ReplayReport(ok=not problems, problems=problems, trace=trace,
                        outcome=outcome)
