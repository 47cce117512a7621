"""The run-spec schema and its validation: specs round-trip through their
canonical text and through the CLI flags, and every spec that could not run
is refused with exit code 2 before a trial starts."""

import csv
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mislab import harness
from mislab.algorithms import ALGORITHMS
from mislab.byzantine import STRATEGY_KINDS
from mislab.cli import _spec_from_args, build_parser, main
from mislab.daemons import DAEMON_KINDS
from mislab.engine import INITIAL_PRESETS, Rule
from mislab.errors import ConfigError
from mislab.graphs import GENERATORS, GRAPH_KINDS
from mislab.harness import RunSpec, canonical_text, parse_run_spec

#: the CLI surface: one flag per run-spec key
SPEC_FLAGS = (
    "--algorithm", "--graph", "--n", "--leaves", "--rows", "--cols", "--p",
    "--graph-seed", "--graph-file", "--daemon", "--fairness", "--density",
    "--script-file", "--init", "--trials", "--master-seed", "--move-ceiling",
    "--round-ceiling", "--byzantine", "--strategies", "--x-cap",
    "--hold-rounds", "--instrument", "--check-invariants", "--sizes", "--out",
    "--trace-out", "--ledger-out",
)

#: file names a spec can hold: a '#' inside a name is part of it, since only
#: one at the start of a line or after whitespace starts a comment
_NAMES = st.text(alphabet="abcxyz_./#0123456789", min_size=1, max_size=8).filter(
    lambda t: t != "None" and not t.startswith("#"))
_COUNTS = st.integers(1, 10**6)


@st.composite
def run_specs(draw):
    """Any spec that validates, output paths unset."""
    algorithm = draw(st.sampled_from(sorted(ALGORITHMS)))
    graph = draw(st.sampled_from((*GRAPH_KINDS, "file")))
    sizes = tuple(draw(st.lists(_COUNTS, max_size=3)))
    params = {name: draw(st.none() | _COUNTS) for name in ("n", "leaves", "rows", "cols")}
    params["p"] = draw(st.none() | st.floats(0.0, 1.0))
    if graph != "file":
        for name in GENERATORS[graph][0]:
            if params[name] is None:
                params[name] = draw(st.floats(0.0, 1.0)) if name == "p" else 3
    daemon = draw(st.sampled_from(DAEMON_KINDS))
    byzantine, strategies = (), ()
    if algorithm == "byzantine":
        byzantine = tuple(draw(st.lists(st.integers(0, 50), unique=True, max_size=3)))
        strategies = tuple(
            (node, draw(st.sampled_from(STRATEGY_KINDS)),
             draw(st.none() | st.integers(0, 2**40)))
            for node in draw(st.lists(st.sampled_from(byzantine), unique=True))
        ) if byzantine else ()
    return RunSpec(
        algorithm=algorithm, graph=graph, **params,
        graph_seed=draw(st.integers(0, 2**70)),
        graph_file=draw(_NAMES) if graph == "file" else draw(st.none() | _NAMES),
        daemon=daemon,
        fairness=draw(st.none() | _COUNTS),
        density=draw(st.floats(0.0, 1.0, exclude_min=True)),
        script_file=draw(_NAMES) if daemon == "scripted" else None,
        init=draw(st.sampled_from(INITIAL_PRESETS)),
        trials=draw(_COUNTS),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        move_ceiling=draw(st.integers(0, 10**9)),
        round_ceiling=draw(st.integers(0, 10**9)),
        byzantine=byzantine, strategies=strategies,
        x_cap=draw(st.integers(0, 2**64)),
        hold_rounds=draw(st.integers(0, 100)),
        instrument=algorithm == "anonymous" and draw(st.booleans()),
        check_invariants=draw(st.booleans()),
        sizes=sizes,
    )


@settings(max_examples=200, deadline=None)
@given(spec=run_specs())
def test_spec_round_trips_through_canonical_text_and_flags(spec):
    text = canonical_text(spec)
    assert parse_run_spec(text) == spec
    argv = ["trial"]
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        argv += [f"--{key.replace('_', '-')}", value]
    assert _spec_from_args(build_parser().parse_args(argv)) == spec


@pytest.mark.parametrize("command", ["trial", "sweep"])
def test_every_field_is_a_cli_flag(command):
    parser = build_parser()
    assert tuple(f"--{f.name.replace('_', '-')}" for f in fields(RunSpec)) == SPEC_FLAGS
    for f in fields(RunSpec):
        args = parser.parse_args([command, f"--{f.name.replace('_', '-')}", "v"])
        assert getattr(args, f.name) == "v"


BASE = ["--algorithm", "anonymous", "--graph", "ring", "--n", "6"]

#: script files that the bad-spec cases name as "{scripts}/<name>"
SCRIPTS = {
    "far_node.txt": "0:candidacy\n99:candidacy\n",
    "foreign_rule.txt": "0:refresh\n",
}


@pytest.fixture
def scripts(tmp_path_factory):
    """A directory, apart from the run's own, holding the SCRIPTS files."""
    directory = tmp_path_factory.mktemp("scripts")
    for name, text in SCRIPTS.items():
        (directory / name).write_text(text, encoding="utf-8")
    return directory


@pytest.mark.parametrize("command, flags", [
    ("trial", ["--algorithm", "anonymous", "--graph", "moebius", "--n", "6"]),
    ("trial", ["--algorithm", "anonymous", "--graph", "file"]),
    ("trial", ["--algorithm", "anonymous", "--graph", "ring"]),
    ("trial", ["--algorithm", "byzantine", "--graph", "erdos_renyi", "--n", "6"]),
    ("trial", [*BASE, "--daemon", "oracle"]),
    ("trial", [*BASE, "--daemon", "scripted"]),
    ("trial", [*BASE, "--script-file", "steps.txt"]),
    ("trial", [*BASE, "--init", "sideways"]),
    ("trial", [*BASE, "--density", "0"]),
    ("trial", [*BASE, "--density", "1.5"]),
    ("trial", [*BASE, "--daemon", "aged_fair", "--fairness", "0"]),
    ("trial", [*BASE, "--n", "None"]),
    ("trial", ["--algorithm", "byzantine", "--graph", "ring", "--n", "6",
               "--x-cap", "-1"]),
    ("trial", ["--algorithm", "byzantine", "--graph", "ring", "--n", "6",
               "--byzantine", "0", "--strategies", "0:uniform_random:-1"]),
    ("trial", ["--algorithm", "byzantine", "--graph", "ring", "--n", "6",
               "--byzantine", "0", "--strategies", "0:chaotic"]),
    ("trial", [*BASE, "--instrument", "maybe"]),
    ("sweep", [*BASE, "--sizes", "4,8", "--trace-out", "t.txt"]),
    ("sweep", [*BASE, "--sizes", "4,8", "--instrument", "true",
               "--ledger-out", "c.csv"]),
    ("sweep", ["--algorithm", "anonymous", "--graph", "erdos_renyi",
               "--sizes", "4,8"]),
    ("trial", ["--algorithm", "byzantine", "--graph", "ring", "--n", "8",
               "--byzantine", "1,1"]),
    ("trial", ["--algorithm", "byzantine", "--graph", "ring", "--n", "6",
               "--byzantine", "6", "--out", "trials.csv"]),
    ("sweep", ["--algorithm", "byzantine", "--graph", "ring", "--sizes", "3000,4",
               "--trials", "3", "--byzantine", "10", "--daemon", "aged_fair",
               "--out", "sweep.csv"]),
    ("trial", ["--algorithm", "anonymous", "--graph", "ring", "--n", "4",
               "--daemon", "scripted", "--script-file", "{scripts}/far_node.txt",
               "--out", "trials.csv"]),
    ("trial", [*BASE, "--daemon", "scripted",
               "--script-file", "{scripts}/foreign_rule.txt"]),
])
def test_bad_specs_exit_2_before_any_trial(command, flags, scripts, tmp_path,
                                           monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    flags = [flag.format(scripts=scripts) for flag in flags]
    trials = []
    monkeypatch.setattr(harness, "run_trial",
                        lambda *args, **kwargs: trials.append(args))
    assert main([command, *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert trials == []
    assert list(tmp_path.iterdir()) == []


def test_sweep_sets_its_size_parameters_itself(capsys):
    assert main(["sweep", "--algorithm", "anonymous", "--graph", "ring",
                 "--sizes", "4,8"]) == 0
    assert main(["sweep", "--algorithm", "anonymous", "--graph", "erdos_renyi",
                 "--p", "0.5", "--sizes", "4,8"]) == 0


@pytest.mark.parametrize("flags, message", [
    (["--x-cap", "-1"], "x caps must be nonnegative"),
    (["--byzantine", "0", "--strategies", "0:uniform_random:-1"],
     "x caps must be nonnegative"),
    (["--byzantine", "0", "--strategies", "0:degree_liar:-5"],
     "x caps must be nonnegative"),
])
def test_negative_caps_are_config_errors(flags, message, capsys):
    assert main(["trial", "--algorithm", "byzantine", "--graph", "ring",
                 "--n", "6", "--daemon", "random_subset", *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flags, message", [
    (["--graph-seed", "-1"], "graph_seed must be nonnegative, got -1"),
    (["--master-seed", "-1"], "master_seed must be in [0, 2**64), got -1"),
    (["--master-seed", str(2**64)],
     f"master_seed must be in [0, 2**64), got {2**64}"),
    (["--master-seed", str(-2**64)],
     f"master_seed must be in [0, 2**64), got {-2**64}"),
])
def test_aliasing_seeds_are_config_errors(flags, message, capsys):
    """A negative graph seed draws the edges of its absolute value, and a
    master seed is used mod 2**64: both would give a second spec hash to
    the same experiment."""
    assert main(["trial", *BASE, *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["trial", *BASE, "--graph-seed", "0",
                 "--master-seed", str(2**64 - 1)]) == 0


def test_a_hash_inside_a_value_is_part_of_it():
    """'#' starts a comment at the start of a line or after whitespace
    only, so a file name holding one survives the spec's canonical text."""
    spec = parse_run_spec("# a run\nalgorithm = anonymous # the coin one\n"
                          "graph = file\ngraph_file = g#1.txt\t# its graph\n")
    assert spec.algorithm == "anonymous" and spec.graph_file == "g#1.txt"
    assert parse_run_spec(canonical_text(spec)) == spec


#: file names canonical text cannot carry: each reads back as another value
#: or as none
UNWRITABLE_NAMES = {"space-hash": "g #1.txt", "tab-hash": "g\t#1.txt",
                    "leading-hash": "#g.txt", "leading-space": " g.txt",
                    "trailing-space": "g.txt ", "line-feed": "g\n.txt",
                    "carriage-return": "g\r.txt", "trailing-line-feed": "g.txt\n"}


#: each file-name key, with the spec parameters that make it required
FILE_KEYS = pytest.mark.parametrize("key, params", [
    ("graph_file", {"graph": "file"}),
    ("script_file", {"graph": "ring", "n": 4, "daemon": "scripted"}),
], ids=["graph_file", "script_file"])


@pytest.mark.parametrize("name", UNWRITABLE_NAMES.values(), ids=UNWRITABLE_NAMES)
@FILE_KEYS
def test_a_file_name_canonical_text_cannot_carry_is_refused(key, params, name):
    spec = RunSpec(algorithm="anonymous", **params, **{key: name})
    with pytest.raises(ConfigError, match=f"^{key}: "):
        harness.validate_run_spec(spec)
    # and a name that it can carry reads back as itself
    spec = RunSpec(algorithm="anonymous", **params, **{key: "g#1.txt"})
    harness.validate_run_spec(spec)
    assert parse_run_spec(canonical_text(spec)) == spec


@FILE_KEYS
def test_a_file_name_of_none_is_refused(key, params):
    """Canonical text writes an unset name as None, so a name of exactly
    None would read back as unset; a name that only holds it is kept."""
    spec = RunSpec(algorithm="anonymous", **params, **{key: "None"})
    with pytest.raises(ConfigError, match=(
            f"^{key}: 'None' .* canonical text writes an unset name as None$")):
        harness.validate_run_spec(spec)
    spec = RunSpec(algorithm="anonymous", **params, **{key: "None.txt"})
    harness.validate_run_spec(spec)
    assert parse_run_spec(canonical_text(spec)) == spec


@pytest.mark.parametrize("flags", [
    ["--graph", "file", "--graph-file", "g #1.txt"],
    ["--graph", "file", "--graph-file", "#g.txt"],
    ["--graph", "ring", "--n", "4", "--daemon", "scripted",
     "--script-file", "s #1.txt"],
    ["--graph", "ring", "--n", "4", "--daemon", "scripted",
     "--script-file", "s\n1.txt"],
])
def test_trial_with_an_unwritable_file_name_exits_2(flags, capsys):
    assert main(["trial", "--algorithm", "anonymous", *flags]) == 2
    key = flags[-2][2:].replace("-", "_")
    assert capsys.readouterr().err.startswith(f"error: {key}: ")


def test_script_loader_sorts_by_node_and_collapses_repeats():
    """A loaded move set is the scripted daemon's replay form: its nodes
    ascending, their rules, and a draw for each coin move only, '-' or no
    draw queued as None; an identical repeated entry counts once."""
    script = harness._load_script(
        ["2:withdrawal?:0, 0:withdrawal?:1, 3:candidacy, 2:withdrawal?:0, "
         "1:withdrawal?:-, 4:withdrawal?\n"], "steps.txt", 5,
        ALGORITHMS["anonymous"], frozenset())
    assert script == (((0, 1, 2, 3, 4),
                       (Rule.TRY_WITHDRAW, Rule.TRY_WITHDRAW, Rule.TRY_WITHDRAW,
                        Rule.CANDIDACY, Rule.TRY_WITHDRAW),
                       (1, None, 0, None)),)
    byzantine = harness._load_script(
        ["1:refresh,0:byz,2:candidacy?:1,3:withdrawal"], "steps.txt", 4,
        ALGORITHMS["byzantine"], frozenset({0}))
    assert byzantine == (((0, 1, 2, 3),
                          (Rule.BYZ, Rule.REFRESH, Rule.TRY_CANDIDACY,
                           Rule.WITHDRAW),
                          (1,)),)


def test_a_script_line_keeps_a_comment_only_after_whitespace():
    algo = ALGORITHMS["anonymous"]
    script = harness._load_script(
        ["# all down\n", "0:candidacy # node 0 rises\n"], "steps.txt", 2, algo,
        frozenset())
    assert script == (((0,), (Rule.CANDIDACY,), ()),)
    with pytest.raises(ConfigError,
                       match="steps.txt line 1: node 0 has no rule 'candidacy#1'"):
        harness._load_script(["0:candidacy#1\n"], "steps.txt", 2, algo, frozenset())


@pytest.mark.parametrize("script, where", [
    ("x:candidacy\n", "line 1"),
    ("0:candidacy\n# comment\n\n1:withdrawal?, y:withdrawal?\n", "line 4"),
])
def test_bad_script_node_names_the_file_line(script, where, tmp_path, capsys):
    path = tmp_path / "steps.txt"
    path.write_text(script, encoding="utf-8")
    assert main(["trial", *BASE, "--daemon", "scripted", "--init", "all_bot",
                 "--script-file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} {where}: expected an integer, got ")
    assert "Traceback" not in err


@pytest.mark.parametrize("flags, script, message", [
    (["--algorithm", "anonymous"], "0:candidacy\n99:candidacy\n",
     "line 2: node 99 outside graph of size 4"),
    (["--algorithm", "anonymous"], "0:refresh\n",
     "line 1: node 0 has no rule 'refresh'; "
     "expected one of ('candidacy', 'withdrawal?')"),
    (["--algorithm", "byzantine", "--byzantine", "0"], "0:byz\n\n1:byz\n",
     "line 3: node 1 has no rule 'byz'; "
     "expected one of ('refresh', 'candidacy?', 'withdrawal')"),
    (["--algorithm", "byzantine", "--byzantine", "0"], "0:refresh\n",
     "line 1: node 0 has no rule 'refresh'; expected one of ('byz',)"),
    (["--algorithm", "byzantine"], "2:jump\n",
     "line 1: node 2 has no rule 'jump'; "
     "expected one of ('refresh', 'candidacy?', 'withdrawal')"),
], ids=["far_node", "foreign_rule", "byz_on_honest_node", "rule_on_faulty_node",
        "unknown_rule"])
def test_script_moves_are_checked_against_graph_and_rules(
        flags, script, message, tmp_path, monkeypatch, capsys):
    """A move no node could ever make is refused with the file and line
    named, before the first trial, not when the daemon reaches it."""
    path = tmp_path / "steps.txt"
    path.write_text(script, encoding="utf-8")
    trials = []
    monkeypatch.setattr(harness, "run_trial",
                        lambda *args, **kwargs: trials.append(args))
    assert main(["trial", *flags, "--graph", "ring", "--n", "4",
                 "--daemon", "scripted", "--script-file", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path} {message}\n"
    assert trials == []


def test_ledger_rows_of_every_trial_are_written_alike(tmp_path, capsys):
    """Colors a ceiling leaves unresolved have an empty died and success in
    every trial, not only in the first."""
    ledger_out = tmp_path / "colors.csv"
    assert main(["trial", *BASE, "--daemon", "random_subset", "--instrument",
                 "true", "--move-ceiling", "2", "--trials", "4",
                 "--ledger-out", str(ledger_out)]) == 0
    with open(ledger_out, encoding="utf-8", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["color", "size", "born", "died", "withdrawal_moves", "success"]
    assert rows and all(len(row) == 6 for row in rows)
    assert {row[0] for row in rows} >= {"0"}
    unresolved = [row for row in rows if row[3] == ""]
    assert unresolved and all(row[5] == "" for row in unresolved)
    assert "None" not in ledger_out.read_text(encoding="utf-8")
    # one header: colors restart at 0 for each trial
    assert sum(row[0] == "0" for row in rows) == 4


@pytest.mark.parametrize("kind", GRAPH_KINDS)
@pytest.mark.parametrize("sizes", ["4,0", "0", "3,-2"])
def test_sweep_sizes_outside_every_kind_exit_2_before_any_trial(
        kind, sizes, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    trials = []
    monkeypatch.setattr(harness, "run_trial",
                        lambda *args, **kwargs: trials.append(args))
    assert main(["sweep", "--algorithm", "anonymous", "--graph", kind,
                 "--p", "0.5", "--sizes", sizes, "--trials", "2",
                 "--out", "sweep.csv"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: sweep size must be a positive integer, got ")
    assert trials == []
    assert list(tmp_path.iterdir()) == []


def test_a_one_node_star_is_its_center(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--algorithm", "anonymous", "--graph", "star",
                 "--sizes", "4,1", "--trials", "2", "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))
    assert [(row[1], row[2], row[4]) for row in rows[1:]] == [
        ("4", "3", "2"), ("1", "0", "2")]
