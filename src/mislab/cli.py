"""Command line front end.

Subcommands: trial, sweep, replay, oracle. Every run-spec key is mirrored by
a flag; flags override values read from a spec file. Relative output paths
resolve against $MISLAB_OUT when it is set.

Exit codes: 0 success, 1 replay mismatch, 2 bad input, 3 invariant violation
(reported with the spec hash, trial and seed, and a command that reruns it).
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from pathlib import Path

from .analysis import all_maximal_independent_sets
from .engine import dump_trace
from .errors import ConfigError, InvariantViolation, ScriptError
from .graphs import read_graph
from .harness import (
    RunSpec,
    parse_run_spec,
    reference_replay,
    run_sweep,
    run_trials,
    spec_hash,
    sweep_csv_text,
    trial_csv_text,
    validate_run_spec,
)

OUTPUT_DIR_ENV = "MISLAB_OUT"

_SPEC_FLAGS = (
    ("algorithm", str), ("graph", str), ("n", int), ("leaves", int),
    ("rows", int), ("cols", int), ("p", float), ("graph_seed", int),
    ("graph_file", str), ("daemon", str), ("fairness", int), ("density", float),
    ("script_file", str), ("init", str), ("trials", int), ("master_seed", int),
    ("move_ceiling", int), ("round_ceiling", int), ("byzantine", str),
    ("strategies", str), ("x_cap", int), ("hold_rounds", int),
    ("instrument", str), ("check_invariants", str), ("sizes", str),
    ("out", str), ("trace_out", str), ("ledger_out", str),
)


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("spec", nargs="?", help="run spec file (key = value lines)")
    for name, _ in _SPEC_FLAGS:
        parser.add_argument(f"--{name.replace('_', '-')}", dest=name)


def _spec_from_args(args: argparse.Namespace) -> RunSpec:
    lines = []
    if args.spec:
        lines.append(Path(args.spec).read_text(encoding="utf-8"))
    for name, _ in _SPEC_FLAGS:
        value = getattr(args, name, None)
        if value is not None:
            lines.append(f"{name} = {value}")
    if not lines:
        raise ConfigError("provide a spec file or enough flags to define a run")
    return parse_run_spec("\n".join(lines))


def _resolve(path: str) -> Path:
    base = os.environ.get(OUTPUT_DIR_ENV)
    p = Path(path)
    if base and not p.is_absolute():
        p = Path(base) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _write(path: str, text: str) -> Path:
    target = _resolve(path)
    target.write_text(text, encoding="utf-8")
    return target


def cmd_trial(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    validate_run_spec(spec)
    want_trace = spec.trace_out is not None
    outcomes = run_trials(spec, want_trace=want_trace)
    records = [o.record for o in outcomes]
    csv_text = trial_csv_text(spec, records)
    if spec.out:
        target = _write(spec.out, csv_text)
        print(f"wrote {target}")
    else:
        sys.stdout.write(csv_text)
    if spec.trace_out:
        buf = io.StringIO()
        for outcome in outcomes:
            dump_trace(outcome.trace, buf)
        target = _write(spec.trace_out, buf.getvalue())
        print(f"wrote {target}")
    if spec.ledger_out:
        buf = io.StringIO()
        wrote_header = False
        for outcome in outcomes:
            if outcome.ledger is not None:
                if not wrote_header:
                    outcome.ledger.write_report(buf)
                    wrote_header = True
                else:
                    for row in outcome.ledger.report_rows():
                        buf.write(",".join(str(v) for v in row) + "\n")
        target = _write(spec.ledger_out, buf.getvalue())
        print(f"wrote {target}")
    converged = sum(1 for r in records if r.converged)
    print(f"spec {spec_hash(spec)}: {converged}/{len(records)} trials converged")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    if not spec.sizes:
        raise ConfigError("sweep needs 'sizes' (in the spec file or --sizes)")
    rows = run_sweep(spec)
    csv_text = sweep_csv_text(spec, rows)
    if spec.out:
        target = _write(spec.out, csv_text)
        print(f"wrote {target}")
    else:
        sys.stdout.write(csv_text)
    for row in rows:
        print(f"n={row.size}: mean moves {row.moves.mean:.1f} "
              f"(bound {row.moves_bound}), mean rounds {row.rounds.mean:.1f}, "
              f"{row.converged}/{row.trials} converged")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    report = reference_replay()
    if args.trace_out:
        buf = io.StringIO()
        dump_trace(report.trace, buf)
        target = _write(args.trace_out, buf.getvalue())
        print(f"wrote {target}")
    if report.ok:
        print("replay ok: 8 transitions, stable end, settled set {1, 3}")
        return 0
    for problem in report.problems:
        print(f"replay mismatch: {problem}", file=sys.stderr)
    return 1


def cmd_oracle(args: argparse.Namespace) -> int:
    with open(args.graph_file, encoding="utf-8") as fh:
        g = read_graph(fh)
    sets = all_maximal_independent_sets(g)
    for members in sorted(sets, key=lambda s: (len(s), sorted(s))):
        print(" ".join(str(u) for u in sorted(members)))
    print(f"{len(sets)} maximal independent sets")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mislab",
        description="Simulation lab for randomized self-stabilizing "
                    "maximal-independent-set algorithms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_trial = sub.add_parser("trial", help="run seeded trials from a run spec")
    _add_spec_flags(p_trial)
    p_trial.set_defaults(func=cmd_trial)

    p_sweep = sub.add_parser("sweep", help="run a size sweep and emit aggregates")
    _add_spec_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_replay = sub.add_parser(
        "replay", help="check the built-in scripted reference execution")
    p_replay.add_argument("--trace-out", dest="trace_out")
    p_replay.set_defaults(func=cmd_replay)

    p_oracle = sub.add_parser(
        "oracle", help="enumerate all maximal independent sets of a graph file")
    p_oracle.add_argument("graph_file")
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
