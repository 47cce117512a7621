"""Command line front end.

Subcommands: trial, sweep, replay, oracle. Every run-spec key is mirrored by
a flag, whose value is taken whole; flags override values read from a spec
file. A plain `trial` or `sweep` command line (`_plain_args`) is read
directly; every other one goes to argparse, imported only then, with the
same result and the same help and error texts. Relative output paths
resolve against $MISLAB_OUT when it is set.
stdout carries data only; status lines, "wrote <path>" among them, go to
stderr.

Exit codes: 0 success, 1 replay mismatch, 2 bad input, 3 invariant violation
(reported with the spec hash, trial and seed, and a command that reruns it).
An output file appears only once it is complete: a run that exits nonzero
leaves none behind. Two outputs on one path, or one inside the other's
directory, exit 2 before any trial.
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
    parse_run_spec,
    reference_replay,
    run_sweep,
    run_trials,
    spec_hash,
    sweep_csv_text,
    trial_csv_text,
)

OUTPUT_DIR_ENV = "MISLAB_OUT"

#: each run-spec key's flag -> the key; the parser and `_plain_args` read it
RUN_FLAGS = {f"--{key.replace('_', '-')}": key for key in SPEC_KEYS}


def _spec_from_args(args) -> RunSpec:
    return parse_run_spec(
        read_text(args.spec) if args.spec else "",
        {key: getattr(args, key) for key in SPEC_KEYS
         if getattr(args, key) is not None}, args.command)


def _target(path: str) -> Path:
    """Where an output path writes: a relative path resolves against
    $MISLAB_OUT when it is set."""
    base = os.environ.get(OUTPUT_DIR_ENV)
    return Path(base) / path if base else Path(path)


@contextlib.contextmanager
def _output(path: str | None):
    """A text stream for an output: stdout without a path, else a temporary
    file beside `_target(path)` that replaces it, and is reported, only once
    the block completes; on any exception it is removed, with the
    directories made for it."""
    if not path:
        yield sys.stdout
        return
    target = _target(path)
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


def _write(path: str | None, text: str) -> None:
    """Write text to path, or to stdout without a path, through `_output`."""
    with _output(path) as fh:
        fh.write(text)


def cmd_trial(args) -> int:
    spec = _spec_from_args(args)
    # two outputs on one path would leave a mix of both, or only the last;
    # one inside the other's directory would fail after every trial
    writers = {}
    for name, (_, _, readers) in SPEC_KEYS.items():
        path = readers is None and getattr(spec, name)
        if path:
            target = _target(path)
            for other, key in writers.items():
                if other == target:
                    raise ConfigError(f"{key} and {name} both write {target}")
                if other in target.parents or target in other.parents:
                    raise ConfigError(f"{key} writes {other} and {name} "
                                      f"writes {target}, one inside the other")
            writers[target] = name
    # the trace streams to its file as the trials run
    with (_output(spec.trace_out) if spec.trace_out
          else contextlib.nullcontext()) as trace_fh:
        outcomes = run_trials(spec, trace_to=trace_fh)
        records = [o.record for o in outcomes]
        _write(spec.out, trial_csv_text(spec, records))
    if spec.ledger_out:
        with _output(spec.ledger_out) as fh:
            write_ledger_csv((outcome.ledger for outcome in outcomes), fh)
    converged = sum(1 for r in records if r.converged)
    print(f"spec {spec_hash(spec)}: {converged}/{len(records)} trials converged",
          file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    spec = _spec_from_args(args)
    rows = run_sweep(spec)
    _write(spec.out, sweep_csv_text(spec, rows))
    for row in rows:
        print(f"n={row['n']}: mean moves {row['mean_moves']:.1f} (bound "
              f"{row['moves_bound_3n2']}), mean rounds {row['mean_rounds']:.1f}, "
              f"{row['converged']}/{row['trials']} converged", file=sys.stderr)
    return 0


def cmd_replay(args) -> int:
    report = reference_replay()
    if args.trace_out:
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


def _run_arguments(parser) -> None:
    parser.add_argument("spec", nargs="?", help="run spec file (key = value lines)")
    for flag, name in RUN_FLAGS.items():
        parser.add_argument(flag, dest=name)


#: subcommand -> (its function, its help line, what adds its arguments)
_COMMANDS = {
    "trial": (cmd_trial, "run seeded trials from a run spec", _run_arguments),
    "sweep": (cmd_sweep, "run a size sweep and emit aggregates", _run_arguments),
    "replay": (cmd_replay, "check the built-in scripted reference execution",
               lambda p: p.add_argument("--trace-out", dest="trace_out")),
    "oracle": (cmd_oracle, "enumerate all maximal independent sets of a graph file",
               lambda p: p.add_argument("graph_file")),
}


def build_parser(argv: list[str] | None = None):
    """The command-line parser. Given the command line `argv`, only the
    subcommands it names get their arguments: parsing it reaches no other
    subcommand's parser, and the help and error texts stay those of the
    full parser."""
    import argparse  # only here: a plain run command line never needs it
    parser = argparse.ArgumentParser(
        prog="mislab",
        description="Simulation lab for randomized self-stabilizing "
                    "maximal-independent-set algorithms.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, add_arguments) in _COMMANDS.items():
        p_command = sub.add_parser(name, help=text)
        p_command.set_defaults(func=func)
        if argv is None or name in argv:
            add_arguments(p_command)
    return parser


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """argparse's namespace for a plain run command line: `trial` or `sweep`,
    at most one spec file, and `--flag value` pairs, each flag in RUN_FLAGS
    and no value beginning with "-" (the last repeat wins); else None."""
    if not argv or argv[0] not in ("trial", "sweep"):
        return None
    values = dict.fromkeys(RUN_FLAGS.values())
    spec = None
    words = iter(argv[1:])
    for word in words:
        if word.startswith("-"):
            value = next(words, "-")  # a flag with no value is refused too
            if word not in RUN_FLAGS or value.startswith("-"):
                return None
            values[RUN_FLAGS[word]] = value
        elif spec is None:
            spec = word
        else:
            return None
    return SimpleNamespace(command=argv[0], func=_COMMANDS[argv[0]][0],
                           spec=spec, **values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv) or build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
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
