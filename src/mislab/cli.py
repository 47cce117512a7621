"""Command line front end.

Subcommands: trial, sweep, replay, oracle, read by `read_args` in one pass;
a line it cannot read exits 2 like any other bad input. Every run-spec key
is mirrored by a flag; flags override values read from a spec file.
Relative output paths resolve against $MISLAB_OUT when it is set. stdout
carries data only; status lines, "wrote <path>" among them, go to stderr.

Exit codes: 0 success, 1 replay mismatch, 2 bad input, 3 invariant violation
(reported with the spec hash, trial and seed, and a command that reruns it).
Every output is checked and opened before the first trial: one on an
existing directory, two on one path (compared once `..` and symlinks
resolve), or one inside the other's directory exit 2. All outputs replace
their targets together after the last trial, so a run that exits nonzero
leaves none behind.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path
from types import SimpleNamespace

from .analysis import (MAX_ORACLE_NODES, all_maximal_independent_sets,
                       write_ledger_csv)
from .errors import ConfigError, InvariantViolation, ScriptError, read_text
from .graphs import read_graph
from .harness import (
    SPEC_KEYS,
    RunSpec,
    output_name,
    parse_run_spec,
    reference_replay,
    run_sweep,
    run_trials,
    spec_hash,
    sweep_csv_text,
    trial_csv_text,
)

OUTPUT_DIR_ENV = "MISLAB_OUT"

#: each run-spec key's flag -> the key: the flags of trial and sweep
RUN_FLAGS = {f"--{key.replace('_', '-')}": key for key in SPEC_KEYS}


def _spec_from_args(args) -> RunSpec:
    return parse_run_spec(
        read_text(args.spec) if args.spec is not None else "",
        {key: getattr(args, key) for key in SPEC_KEYS
         if getattr(args, key) is not None}, args.command)


def _target(path: str) -> Path:
    """Where an output path writes: a relative path resolves against
    $MISLAB_OUT when it is set."""
    base = os.environ.get(OUTPUT_DIR_ENV)
    return Path(base) / path if base else Path(path)


@contextlib.contextmanager
def _output(path: str | None):
    """A text stream for an output: None without a path, else a temporary
    file beside `_target(path)`, refused first if that is a directory, that
    replaces it, and is reported, only once the block completes; on any
    exception it is removed, with the directories made for it."""
    if not path:
        yield None
        return
    target = _target(path)
    if target.is_dir():
        raise ConfigError(f"{target} is a directory, not a file")
    made = [d for d in target.parents if not d.exists()]  # deepest first
    target.parent.mkdir(parents=True, exist_ok=True)
    partial = target.with_name(f".{target.name}.{os.getpid()}.partial")
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(partial, target)
    except BaseException:
        partial.unlink(missing_ok=True)
        for d in made:
            with contextlib.suppress(OSError):  # not empty: another output
                d.rmdir()
        raise
    print(f"wrote {target}", file=sys.stderr)


def _write(path: str, text: str) -> None:
    """Write text to path through `_output`."""
    with _output(path) as fh:
        fh.write(text)


def cmd_trial(args) -> int:
    spec = _spec_from_args(args)
    if spec.ledger_out and not spec.instrument:
        raise ConfigError("ledger_out requires instrument = true")
    # two outputs on one path, however spelled, would leave a mix of both or
    # only the last; one inside the other's directory could not be written
    writers = {}  # resolved target -> its key and its target as given
    for name, (_, _, readers) in SPEC_KEYS.items():
        path = readers is None and getattr(spec, name)
        if path:
            target = _target(path)
            real = target.resolve()
            for other, (key, given) in writers.items():
                if other == real:
                    raise ConfigError(f"{key} and {name} both write {target}")
                if other in real.parents or real in other.parents:
                    raise ConfigError(f"{key} writes {given} and {name} "
                                      f"writes {target}, one inside the other")
            writers[real] = name, target
    # every output opens before the first trial, the trace streams to its
    # file as the trials run, and all replace their targets as the block ends
    with (_output(spec.ledger_out) as ledger_fh,
          _output(spec.trace_out) as trace_fh, _output(spec.out) as out_fh):
        # hold one trial at a time: write its ledger rows, keep its record
        records = []

        def ledgers():
            for outcome in run_trials(spec, trace_to=trace_fh):
                records.append(outcome.record)
                yield outcome.ledger
        if ledger_fh:
            write_ledger_csv(ledgers(), ledger_fh)
        else:
            for _ in ledgers():
                pass
        (out_fh or sys.stdout).write(trial_csv_text(spec, records))
    converged = sum(1 for r in records if r.converged)
    print(f"spec {spec_hash(spec)}: {converged}/{len(records)} trials converged",
          file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    spec = _spec_from_args(args)
    if spec.trace_out or spec.ledger_out:
        raise ConfigError("a sweep writes no trace or color ledger; "
                          "drop trace_out and ledger_out")
    with _output(spec.out) as fh:
        rows = run_sweep(spec)
        (fh or sys.stdout).write(sweep_csv_text(spec, rows))
    for row in rows:
        print(f"n={row['n']}: mean moves {row['mean_moves']:.1f} (bound "
              f"{row['moves_bound_3n2']}), mean rounds {row['mean_rounds']:.1f}, "
              f"{row['converged']}/{row['trials']} converged", file=sys.stderr)
    return 0


def cmd_replay(args) -> int:
    if args.trace_out is not None:  # "" is refused before the replay runs
        output_name("trace_out", args.trace_out)
    report = reference_replay()
    if args.trace_out is not None:
        _write(args.trace_out, report.trace)
    if report.ok:
        print("replay ok: 8 transitions, stable end, settled set {1, 3}")
        return 0
    for problem in report.problems:
        print(f"replay mismatch: {problem}", file=sys.stderr)
    return 1


def cmd_oracle(args) -> int:
    g = read_graph(io.StringIO(read_text(args.graph_file)), MAX_ORACLE_NODES)
    sets = all_maximal_independent_sets(g)
    for members in sorted(sets, key=lambda s: (len(s), sorted(s))):
        print(" ".join(str(u) for u in sorted(members)))
    print(f"{len(sets)} maximal independent sets")
    return 0


#: command -> its function, its help line, its flags (flag -> key) and its
#: positional argument, if any, as its usage shows it: in brackets if optional
_COMMANDS = {
    "trial": (cmd_trial, "run seeded trials from a run spec", RUN_FLAGS, "[spec]"),
    "sweep": (cmd_sweep, "run a size sweep and emit aggregates", RUN_FLAGS, "[spec]"),
    "replay": (cmd_replay, "check the built-in scripted reference execution",
               {"--trace-out": "trace_out"}, ""),
    "oracle": (cmd_oracle, "enumerate all maximal independent sets of a graph file",
               {}, "graph_file"),
}


def _usage(command: str) -> str:
    """What `command` does, and its usage line."""
    _, text, flags, positional = _COMMANDS[command]
    words = [command, "[-h]", positional.upper(), flags and "[--FLAG VALUE]..."]
    return f"mislab {command}: {text}\nusage: mislab {' '.join(filter(None, words))}"


def read_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace of a command line, or None once its help is printed:
    the command; flags spelled in full, each taking the next word whole or
    the text after "="; one positional word. Else a ConfigError."""
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        print(*map(_usage, _COMMANDS), sep="\n")
        return None
    if command not in _COMMANDS:
        raise ConfigError(f"expected a command: {', '.join(_COMMANDS)} (mislab -h)")
    _, _, flags, positional = _COMMANDS[command]
    slots = positional.strip("[]").split()  # the positional's name until set
    values = dict.fromkeys([*flags.values(), *slots])
    words = iter(argv[1:])
    for word in words:
        if word in ("-h", "--help"):
            print(_usage(command), *flags, sep="\n  ")
            return None
        if word.startswith("-"):
            flag, eq, value = word.partition("=")
            if flag not in flags:
                raise ConfigError(f"{command}: unknown flag {flag!r}")
            value = value if eq else next(words, None)
            if value is None:
                raise ConfigError(f"{command}: {flag} takes a value")
            values[flags[flag]] = value
        elif slots:
            values[slots.pop()] = word
        else:
            raise ConfigError(f"{command}: unexpected argument {word!r}")
    if slots and not positional.startswith("["):
        raise ConfigError(f"{command}: missing {positional}")
    return SimpleNamespace(command=command, **values)


def main(argv: list[str] | None = None) -> int:
    try:
        args = read_args(sys.argv[1:] if argv is None else argv)
        return 0 if args is None else _COMMANDS[args.command][0](args)
    except (ConfigError, ScriptError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        if exc.rerun:
            print(f"rerun: {exc.rerun}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
