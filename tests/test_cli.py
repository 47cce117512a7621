import contextlib
import io
import os
import pkgutil
import runpy
import shlex
import subprocess
import sys
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mislab
from mislab import cli, graphs, harness
from mislab.algorithms import AnonymousMIS
from mislab.cli import RUN_FLAGS, _spec_from_args, main, read_args
from mislab.daemons import DAEMON_KINDS
from mislab.engine import CANDIDACY, derive_seed
from mislab.errors import ConfigError
from mislab.graphs import GRAPH_KINDS, erdos_renyi, ring, write_graph
from mislab.harness import SPEC_KEYS, parse_run_spec, spec_hash

ANON_SPEC = """
algorithm = anonymous
graph = ring
n = 6
daemon = random_subset
init = random
trials = 4
master_seed = 11
"""


@pytest.fixture
def spec_file(tmp_path):
    target = tmp_path / "run.spec"
    target.write_text(ANON_SPEC, encoding="utf-8")
    return target


#: what command lines are built from: every exact run flag, forms the reader
#: refuses or reads specially (abbreviations, `--flag=value`, help, `--`,
#: values that begin with "-") and values with blanks, '#' or a newline
WORDS = ["trial", "sweep", "replay", "oracle", *RUN_FLAGS, "--master", "--n=3",
         "--trace-out", "-h", "--help", "--", "-1", "-x", "", "a b", "x#1",
         "a\nb", "ring", "8", "run.spec"]

#: the installed-command lines CI runs in the plain form
CI_LINES = [
    "trial --algorithm anonymous --graph ring --n 8 --trials 2",
    "trial --algorithm anonymous --graph ring --n 8 --trials 2 --p 0.3 --hold-rounds 3",
    "trial --algorithm anonymous --graph ring --n 99999999999999999999",
    "sweep --algorithm anonymous --graph ring --sizes 4,8 --trials 2",
]

BENCHMARK_WORKLOADS = runpy.run_path(str(
    Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"))["WORKLOADS"]


@st.composite
def run_lines(draw):
    """`trial` or `sweep`, flag-value pairs, most flags exact run flags, and
    maybe one more word at any place."""
    word = st.one_of(st.sampled_from(WORDS), st.text(max_size=3))
    pairs = draw(st.lists(st.tuples(
        st.one_of(st.sampled_from(list(RUN_FLAGS)), word), word), max_size=5))
    argv = [draw(st.sampled_from(["trial", "sweep"])), *chain.from_iterable(pairs)]
    at = draw(st.integers(1, len(argv)))
    return argv[:at] + draw(st.lists(word, max_size=1)) + argv[at:]


@settings(max_examples=300, deadline=None)
@given(argv=st.one_of(
    st.lists(st.one_of(st.sampled_from(WORDS), st.text(max_size=3)), max_size=7),
    run_lines()))
@example(argv=["trial", "run.spec", "--n", "3", "--n", "4", "--out", "x#1"])
@example(argv=["sweep", "--n", "3", "", "--graph", "a\nb"])
def test_read_args_returns_a_namespace_or_none_or_raises_config_error(argv):
    """No command line ends in SystemExit or any other exception; a
    namespace holds the command's keys and no other."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            args = read_args(argv)
        except ConfigError:
            return
    if args is not None:
        keys = set(vars(args)) - {"command"}
        assert keys == {"trial": {"spec", *SPEC_KEYS}, "sweep": {"spec", *SPEC_KEYS},
                        "replay": {"trace_out"}, "oracle": {"graph_file"}}[args.command]


@pytest.mark.parametrize("argv", [
    *(w.argv(0, "out") for w in BENCHMARK_WORKLOADS.values()),
    *(line.split() for line in CI_LINES),
])
def test_benchmark_and_ci_command_lines_take_the_plain_path(argv):
    """Each benchmark and CI line is `--flag value` pairs, read as such."""
    assert vars(read_args(argv)) == {
        "command": argv[0], "spec": None, **dict.fromkeys(SPEC_KEYS),
        **{RUN_FLAGS[flag]: value for flag, value in zip(argv[1::2], argv[2::2])}}


#: flag values the reader takes whole
ODD_VALUES = ["-1", "-g.txt", "-h", "--help", "--n", "a=b", "=", "x#1", "a b",
              " 4 ", "a\nb", ""]


@pytest.mark.parametrize("flag", RUN_FLAGS)
def test_a_flag_reads_the_same_with_and_without_equals(flag):
    """In either form the value is taken whole, and the last repeat wins."""
    for value in ODD_VALUES:
        apart = read_args(["trial", flag, value, "run.spec"])
        assert getattr(apart, RUN_FLAGS[flag]) == value
        assert vars(read_args(["trial", f"{flag}={value}", "run.spec"])) == vars(apart)
    last = read_args(["sweep", flag, "1", f"{flag}=2", flag, "3"])
    assert getattr(last, RUN_FLAGS[flag]) == "3"


@pytest.mark.parametrize("argv, message", [
    ([], "expected a command: trial, sweep, replay, oracle (mislab -h)"),
    (["run"], "expected a command: trial, sweep, replay, oracle (mislab -h)"),
    (["--n", "8"], "expected a command: trial, sweep, replay, oracle (mislab -h)"),
    (["trial", "--master", "3"], "trial: unknown flag '--master'"),
    (["sweep", "--alg=anonymous"], "sweep: unknown flag '--alg'"),
    (["trial", "-x"], "trial: unknown flag '-x'"),
    (["trial", "-1"], "trial: unknown flag '-1'"),
    (["trial", "--", "a.spec"], "trial: unknown flag '--'"),
    (["replay", "--out", "r.csv"], "replay: unknown flag '--out'"),
    (["trial", "--n"], "trial: --n takes a value"),
    (["replay", "--trace-out"], "replay: --trace-out takes a value"),
    (["trial", "a.spec", "b.spec"], "trial: unexpected argument 'b.spec'"),
    (["replay", "x"], "replay: unexpected argument 'x'"),
    (["oracle", "g.txt", "h.txt"], "oracle: unexpected argument 'h.txt'"),
    (["oracle"], "oracle: missing graph_file"),
], ids=["none", "unknown-command", "flag-first", "abbreviated", "abbreviated-equals",
        "short", "negative", "double-dash", "other-commands-flag", "no-value",
        "replay-no-value", "second-spec", "replay-argument", "second-graph-file",
        "no-graph-file"])
def test_a_line_the_reader_refuses_exits_2_with_one_error_line(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("command, flags", [
    ("trial", RUN_FLAGS), ("sweep", RUN_FLAGS), ("replay", ["--trace-out"]),
    ("oracle", []),
])
def test_help_exits_0_and_names_every_flag(command, flags, capsys):
    assert main([command, "-h"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"mislab {command}: ")
    assert [line.strip() for line in out.splitlines()[2:]] == list(flags)
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out == out


def test_mislab_help_lists_the_commands(capsys):
    assert main(["-h"]) == 0
    out = capsys.readouterr().out
    assert [line.split(":")[0] for line in out.splitlines()[::2]] == [
        "mislab trial", "mislab sweep", "mislab replay", "mislab oracle"]
    assert main(["--help"]) == 0
    assert capsys.readouterr().out == out


def test_a_plain_run_loads_no_argparse(tmp_path):
    """No command line imports argparse, or the gettext module it brings,
    in a fresh interpreter: a plain run, an `=` run, help, replay, oracle
    and a refused line."""
    graph = tmp_path / "path3.txt"
    graph.write_text("3 2\n0 1\n1 2\n", encoding="utf-8")
    run = ["--algorithm", "anonymous", "--graph", "ring", "--n", "8", "--trials", "1"]
    lines = [["trial", *run], ["trial", *map("=".join, zip(run[::2], run[1::2]))],
             ["trial", "-h"], ["replay"], ["oracle", str(graph)], ["trial", "--master", "3"]]
    code = (
        "import sys\n"
        "import mislab.cli\n"
        f"codes = [mislab.cli.main(argv) for argv in {lines!r}]\n"
        "print(codes, sorted({'argparse', 'gettext'} & set(sys.modules)))\n"
    )
    env = dict(os.environ,
               PYTHONPATH=str(Path(mislab.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 2] []"


def test_trial_to_stdout(spec_file, capsys):
    """stdout is the CSV alone, so `mislab trial ... > r.csv` is a CSV file;
    the status line goes to stderr."""
    assert main(["trial", str(spec_file)]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0].startswith("spec_hash,trial,seed,moves,rounds,")
    assert len(lines) == 5
    assert all(line.count(",") == lines[0].count(",") for line in lines)
    assert "4/4 trials converged" in captured.err


def test_sweep_to_stdout_is_csv_only(spec_file, capsys):
    assert main(["sweep", str(spec_file), "--sizes", "4,8", "--trials", "2"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0].startswith("spec_hash,n,delta,trials,") and len(lines) == 3
    assert "n=8: mean moves" in captured.err


def test_trial_writes_csv_and_trace(spec_file, tmp_path, capsys):
    out_csv = tmp_path / "r.csv"
    out_trace = tmp_path / "t.txt"
    code = main(["trial", str(spec_file), "--out", str(out_csv),
                 "--trace-out", str(out_trace), "--trials", "2"])
    assert code == 0
    lines = out_csv.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    assert out_trace.read_text(encoding="utf-8").startswith("0 - ")


def test_flags_override_spec_file(spec_file, tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["trial", str(spec_file), "--out", str(out_a)]) == 0
    assert main(["trial", str(spec_file), "--out", str(out_b),
                 "--master-seed", "12"]) == 0
    assert out_a.read_text() != out_b.read_text()


def test_output_dir_env(spec_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MISLAB_OUT", str(tmp_path / "results"))
    assert main(["trial", str(spec_file), "--out", "nested/r.csv"]) == 0
    assert (tmp_path / "results" / "nested" / "r.csv").exists()


def test_sweep_command(spec_file, tmp_path):
    out_csv = tmp_path / "sweep.csv"
    code = main(["sweep", str(spec_file), "--sizes", "4,8",
                 "--trials", "5", "--out", str(out_csv)])
    assert code == 0
    lines = out_csv.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("spec_hash,n,delta,trials,")
    assert len(lines) == 3


def test_sweep_without_sizes_fails(spec_file, capsys):
    assert main(["sweep", str(spec_file)]) == 2
    assert "error:" in capsys.readouterr().err


def test_replay_command(tmp_path, capsys):
    trace_out = tmp_path / "golden.txt"
    assert main(["replay", "--trace-out", str(trace_out)]) == 0
    assert "replay ok" in capsys.readouterr().out
    assert len(trace_out.read_text(encoding="utf-8").splitlines()) == 9


def test_replay_trace_mismatch_exits_1(monkeypatch, capsys):
    """One flipped s bit in the stored trace: the run still follows the
    stored moves, and the replay names the line that no longer matches."""
    lines = harness.REFERENCE_TRACE.splitlines(keepends=True)
    assert lines[3].endswith(" 1101\n")
    lines[3] = lines[3].replace(" 1101\n", " 0101\n")
    monkeypatch.setattr(harness, "REFERENCE_TRACE", "".join(lines))
    assert main(["replay"]) == 1
    captured = capsys.readouterr()
    assert "replay ok" not in captured.out
    assert "trace line 3 is" in captured.err
    assert "expected '3 0:withdrawal?:0,1:withdrawal?:0,2:withdrawal?:1 0101'" \
        in captured.err
    assert "ledger line" not in captured.err


def test_replay_ledger_mismatch_exits_1(monkeypatch, capsys):
    """A wrong `died` value for color 5 in the stored ledger."""
    assert "\n5,2,5,8,5,True\n" in harness.REFERENCE_LEDGER
    monkeypatch.setattr(harness, "REFERENCE_LEDGER",
                        harness.REFERENCE_LEDGER.replace("5,2,5,8,", "5,2,5,7,"))
    assert main(["replay"]) == 1
    captured = capsys.readouterr()
    assert "replay ok" not in captured.out
    assert ("ledger line 2 is '5,2,5,8,5,True', expected '5,2,5,7,5,True'"
            in captured.err)
    assert "trace line" not in captured.err


def test_each_module_imports_first():
    """Every module imports in a fresh package, with no mislab module
    loaded before it, so no import cycle hides behind a fixed order."""
    names = [f"mislab.{info.name}" for info in pkgutil.iter_modules(mislab.__path__)
             if info.name != "__main__"]
    assert "mislab.cli" in names and "mislab.harness" in names
    code = (
        "import importlib, sys\n"
        "for name in sys.argv[1:]:\n"
        "    for key in [k for k in sys.modules if k.split('.')[0] == 'mislab']:\n"
        "        del sys.modules[key]\n"
        "    importlib.import_module(name)\n"
    )
    env = dict(os.environ,
               PYTHONPATH=str(Path(mislab.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", code, *names], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_oracle_command(tmp_path, capsys):
    target = tmp_path / "g.txt"
    with open(target, "w", encoding="utf-8") as fh:
        write_graph(ring(5), fh)
    assert main(["oracle", str(target)]) == 0
    out = capsys.readouterr().out
    assert "5 maximal independent sets" in out
    assert "0 2" in out


def test_oracle_rejects_large_graph(tmp_path, capsys):
    """A header that declares too many nodes is refused before the graph is
    built, as a file with too many nodes is."""
    target = tmp_path / "g.txt"
    with open(target, "w", encoding="utf-8") as fh:
        write_graph(erdos_renyi(20, 0.2, seed=1), fh)
    assert main(["oracle", str(target)]) == 2
    target.write_text("99999999999999 0\n", encoding="utf-8")
    assert main(["oracle", str(target)]) == 2
    assert capsys.readouterr().err.endswith(
        "error: line 1: at most 16 nodes, got 99999999999999\n")


def test_config_error_exit_code(capsys):
    assert main(["trial", "--algorithm", "anonymous", "--graph", "ring",
                 "--n", "4", "--byzantine", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_non_numeric_flag_is_config_error(capsys):
    assert main(["trial", "--algorithm", "anonymous", "--graph", "ring",
                 "--n", "abc"]) == 2
    assert "n: expected an integer, got 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("text, line", [("4 2\n0 1\n1 2\n2 3\n", 4),
                                        ("3 -1\n", 1)])
def test_graph_file_that_disagrees_with_its_header_exits_2(tmp_path, capsys,
                                                           text, line):
    target = tmp_path / "g.txt"
    target.write_text(text, encoding="utf-8")
    assert main(["oracle", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: line {line}: ")
    assert captured.out == ""


@pytest.mark.parametrize("header, message", [
    ("3", "graph file must start with a 'n m' line"),
    ("3 x", "node and edge counts must be integers, got '3 x'"),
    ("-1 0", "node count must be nonnegative, got -1"),
])
def test_bad_graph_file_header_names_line_1(tmp_path, capsys, header, message):
    target = tmp_path / "g.txt"
    target.write_text(f"{header}\n", encoding="utf-8")
    assert main(["oracle", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: line 1: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("edge, message", [
    ("2 2", "self-loop on node 2"),
    ("1 7", "edge (1,7) out of range for n=3"),
])
def test_graph_file_edge_outside_the_graph_names_its_line(tmp_path, capsys,
                                                          edge, message):
    target = tmp_path / "g.txt"
    target.write_text(f"3 2\n0 1\n{edge}\n", encoding="utf-8")
    assert main(["oracle", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: line 3: {message}\n"
    assert captured.out == ""


def test_repeated_graph_file_edge_exits_2(tmp_path, capsys):
    target = tmp_path / "g.txt"
    target.write_text("3 2\n0 1\n1 0\n", encoding="utf-8")
    assert main(["oracle", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: line 3: edge 1 0 repeats the edge on line 2\n"
    assert captured.out == ""


@pytest.mark.parametrize("line, message", [
    ("0:candidacy,1:withdrawal?:2", "draw must be 0, 1 or -, got '2'"),
    ("0:candidacy:", "draw must be 0, 1 or -, got ''"),
    ("0:candidacy:1", "rule 'candidacy' draws nothing, got draw 1"),
    ("1:withdrawal?:0,1:withdrawal?:1",
     "node 1 is listed twice with different moves"),
])
def test_bad_script_draw_exits_2(tmp_path, capsys, line, message):
    script = tmp_path / "steps.txt"
    script.write_text(f"0:candidacy\n\n{line}\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main(["trial", "--algorithm", "anonymous", "--graph", "ring",
                 "--n", "4", "--daemon", "scripted", "--script-file",
                 str(script), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {script} line 3: {message}\n"
    assert not out.exists()


def test_byzantine_script_move_takes_no_draw(tmp_path, capsys):
    script = tmp_path / "steps.txt"
    script.write_text("0:byz:0\n", encoding="utf-8")
    assert main(["trial", "--algorithm", "byzantine", "--graph", "ring",
                 "--n", "4", "--byzantine", "0", "--daemon", "scripted",
                 "--script-file", str(script)]) == 2
    assert capsys.readouterr().err == (
        f"error: {script} line 1: rule 'byz' draws nothing, got draw 0\n")


def test_non_numeric_graph_file_edge_is_config_error(tmp_path, capsys):
    target = tmp_path / "g.txt"
    target.write_text("3 2\n0 1\n0 x\n", encoding="utf-8")
    assert main(["oracle", str(target)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_non_numeric_strategy_node_is_config_error(capsys):
    assert main(["trial", "--algorithm", "byzantine", "--graph", "ring",
                 "--n", "4", "--byzantine", "0",
                 "--strategies", "a:oscillate"]) == 2
    assert "strategies: expected an integer" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--algorithm", "byzantine", "--graph", "ring", "--n", "4",
      "--byzantine", "0", "--strategies", "0"],
     "strategies: entries are node:kind[:x_cap], got '0'"),
    (["--algorithm", "anonymous", "--graph", "ring", "--n", "4",
      "--move-ceiling", "-1"],
     "ceilings must be nonnegative (0 means default)"),
    (["--algorithm", "anonymous", "--graph", "ring", "--n", "4",
      "--hold-rounds", "-1"],
     "hold_rounds must be nonnegative"),
    (["--algorithm", "anonymous", "--graph", "star", "--leaves", "-1"],
     "leaves must be a nonnegative integer, got -1"),
], ids=["strategy-arity", "move-ceiling", "hold-rounds", "leaves"])
def test_a_value_the_spec_refuses_exits_2_and_writes_nothing(
        flags, message, tmp_path, capsys):
    assert main(["trial", *flags, "--out", str(tmp_path / "trials.csv"),
                 "--trace-out", str(tmp_path / "trials.trace")]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_a_density_that_chooses_no_node_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "trials.csv"
    assert main(["trial", "--algorithm", "anonymous", "--graph", "ring",
                 "--n", "4", "--daemon", "random_subset", "--density", "1e-9",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: random_subset density 1e-09 chose no node in 10000 draws; "
        "raise the density\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("daemon", [kind for kind in DAEMON_KINDS
                                    if kind != "scripted"])
def test_empty_graph_file_runs_under_every_daemon(tmp_path, capsys, daemon):
    """The empty graph is stable at once; aged_fair's default bound, n,
    is raised to 1 there, since no bound below 1 exists."""
    target = tmp_path / "empty.graph"
    target.write_text("0 0\n", encoding="utf-8")
    assert main(["trial", "--algorithm", "anonymous", "--graph", "file",
                 "--graph-file", str(target), "--daemon", daemon]) == 0
    assert "1/1 trials converged" in capsys.readouterr().err


def test_missing_spec_is_config_error(capsys):
    assert main(["trial"]) == 2


@pytest.mark.parametrize("command", ["trial", "sweep"])
def test_an_empty_spec_file_name_is_refused(command, tmp_path, monkeypatch,
                                            capsys):
    """"" names no file, as a name that does not exist names none: it is
    read, and refused, rather than taken for no spec file."""
    monkeypatch.chdir(tmp_path)
    assert main([command, "", "--algorithm", "anonymous", "--graph", "ring",
                 "--n", "4", "--sizes", "4", "--out", "r.csv"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_ledger_output(tmp_path):
    spec = tmp_path / "run.spec"
    spec.write_text(ANON_SPEC + "instrument = true\n", encoding="utf-8")
    ledger_out = tmp_path / "colors.csv"
    assert main(["trial", str(spec), "--ledger-out", str(ledger_out)]) == 0
    lines = ledger_out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "color,size,born,died,withdrawal_moves,success"
    assert len(lines) > 1


def test_a_run_holds_one_trial_at_a_time(tmp_path):
    """Each trial's ledger rows are written as it ends and only its record
    is kept, so the memory a run holds at its peak does not grow with the
    number of its instrumented trials."""
    import tracemalloc

    def peak(trials):
        tracemalloc.start()
        try:
            assert main(["trial", "--algorithm", "anonymous", "--graph", "ring",
                         "--n", "2000", "--daemon", "synchronous",
                         "--check-invariants", "false", "--instrument", "true",
                         "--trials", str(trials),
                         "--out", str(tmp_path / f"r{trials}.csv"),
                         "--ledger-out", str(tmp_path / f"l{trials}.csv")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, many = peak(3), peak(15)
    assert many < 1.3 * few, (few, many)


def test_invariant_violation_names_the_trial_and_exits_3(monkeypatch, capsys):
    # a planted guard bug: candidacy next to a settled node shrinks the
    # settled set, which run_trial reports as an invariant violation
    original = AnonymousMIS.enabled_rules
    monkeypatch.setattr(
        AnonymousMIS, "enabled_rules",
        lambda self, s, x, deg, up, u: (CANDIDACY if not s[u]
                                        else original(self, s, x, deg, up, u)))
    flags = ["--algorithm", "anonymous", "--graph", "ring", "--n", "12",
             "--daemon", "random_subset", "--trials", "5", "--master-seed", "7"]
    assert main(["trial", *flags]) == 3
    message, rerun = capsys.readouterr().err.splitlines()
    spec = parse_run_spec("\n".join(
        f"{k[2:].replace('-', '_')} = {v}" for k, v in zip(flags[::2], flags[1::2])))
    prefix = f"invariant violation: spec {spec_hash(spec)} trial "
    assert message.startswith(prefix)
    trial = int(message[len(prefix):].split()[0])
    context = f"trial {trial} seed {derive_seed(7, trial)}: settled set shrank: lost ["
    assert context in message

    argv = shlex.split(rerun.removeprefix("rerun: "))
    assert argv[:2] == ["mislab", "trial"]
    assert argv[-4:] == ["--master-seed", "7", "--trials", str(trial + 1)]
    assert main(argv[1:]) == 3
    again = capsys.readouterr().err.splitlines()[0]
    assert again.endswith(message[message.index(f"trial {trial} "):])


def test_a_flag_value_is_taken_whole(tmp_path, monkeypatch, capsys):
    """'#' in a flag value is part of it, not a comment."""
    monkeypatch.chdir(tmp_path)
    assert main(["trial", "--algorithm", "anonymous", "--graph", "ring",
                 "--n", "4", "--out", "res#1.csv"]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["res#1.csv"]
    assert "wrote res#1.csv" in capsys.readouterr().err


def test_a_flag_value_cannot_set_another_key(capsys):
    """A newline in a flag value does not start another spec line."""
    assert main(["trial", "--algorithm", "anonymous", "--graph", "ring",
                 "--n", "4", "--init", "random\nalgorithm = byzantine"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: unknown initial preset 'random\\nalgorithm = byzantine'")


@pytest.mark.parametrize("flags, keys, name", [
    (["--out", "r.txt", "--trace-out", "r.txt"], "out and trace_out", "r.txt"),
    (["--instrument", "true", "--out", "{out}/q.txt", "--ledger-out", "./q.txt"],
     "out and ledger_out", "q.txt"),
    (["--out", "d/../r.csv", "--trace-out", "r.csv"], "out and trace_out", "r.csv"),
    (["--out", "{link}/s.csv", "--trace-out", "s.csv"], "out and trace_out", "s.csv"),
])
def test_two_outputs_on_one_path_exit_2_before_any_trial(
        flags, keys, name, tmp_path, tmp_path_factory, monkeypatch, capsys):
    """Paths compare as the run would write them: under $MISLAB_OUT, with
    './' and '..' dropped and symlinks followed; no directory is made."""
    out = tmp_path / "out"
    link = tmp_path_factory.mktemp("links") / "link"  # another name for out
    link.symlink_to(out, target_is_directory=True)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("MISLAB_OUT", str(out))
    trials = []
    monkeypatch.setattr(harness, "run_trial",
                        lambda *args, **kwargs: trials.append(args))
    assert main(["trial", "--algorithm", "anonymous", "--graph", "ring",
                 "--n", "4", *(flag.format(out=out, link=link) for flag in flags)]) == 2
    assert capsys.readouterr().err == f"error: {keys} both write {out / name}\n"
    assert trials == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, message", [
    (["--out", "sub/x.csv", "--trace-out", "sub"],
     "out writes {out}/sub/x.csv and trace_out writes {out}/sub"),
    (["--out", "sub", "--trace-out", "sub/x.txt"],
     "out writes {out}/sub and trace_out writes {out}/sub/x.txt"),
])
def test_an_output_inside_another_outputs_directory_exits_2_before_any_trial(
        flags, message, tmp_path, monkeypatch, capsys):
    """Either order is refused: the outer output would have to be both a
    file and the inner one's directory."""
    out = tmp_path / "out"
    monkeypatch.setenv("MISLAB_OUT", str(out))
    trials = []
    monkeypatch.setattr(harness, "run_trial",
                        lambda *args, **kwargs: trials.append(args))
    assert main(["trial", "--algorithm", "anonymous", "--graph", "ring",
                 "--n", "5", "--trials", "3", *flags]) == 2
    assert capsys.readouterr().err == (
        f"error: {message.format(out=out)}, one inside the other\n")
    assert trials == []
    assert list(tmp_path.iterdir()) == []


#: a trial's three outputs, by key: its flag and the file name it writes
OUTPUT_FILES = {"out": ("--out", "r.csv"), "trace_out": ("--trace-out", "t.txt"),
                "ledger_out": ("--ledger-out", "c.csv")}


def _no_trial(monkeypatch):
    monkeypatch.setattr(harness, "run_trial",
                        lambda *args, **kwargs: pytest.fail("a trial ran"))


@pytest.mark.parametrize("key", OUTPUT_FILES)
def test_an_output_on_a_directory_exits_2_before_any_trial_and_writes_nothing(
        key, tmp_path, monkeypatch, capsys):
    """The other outputs keep their older files: no output replaces its
    target unless every one can be written."""
    monkeypatch.chdir(tmp_path)
    os.mkdir("D")
    flags = ["--instrument", "true"]
    for other, (flag, name) in OUTPUT_FILES.items():
        if other != key:
            Path(name).write_text("old", encoding="utf-8")
        flags += [flag, "D" if other == key else name]
    _no_trial(monkeypatch)
    before = sorted(tmp_path.iterdir())
    assert main(["trial", "--algorithm", "anonymous", "--graph", "ring",
                 "--n", "6", "--trials", "2", *flags]) == 2
    assert capsys.readouterr().err == "error: D is a directory, not a file\n"
    assert sorted(tmp_path.iterdir()) == before
    assert list(Path("D").iterdir()) == []
    for other, (_, name) in OUTPUT_FILES.items():
        if other != key:
            assert Path(name).read_text(encoding="utf-8") == "old"


def test_a_sweep_output_on_a_directory_exits_2_before_any_trial(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    os.mkdir("D")
    _no_trial(monkeypatch)
    assert main(["sweep", "--algorithm", "anonymous", "--graph", "ring",
                 "--sizes", "4,8", "--out", "D"]) == 2
    assert capsys.readouterr().err == "error: D is a directory, not a file\n"
    assert [p.name for p in tmp_path.iterdir()] == ["D"]
    assert list(Path("D").iterdir()) == []


def test_an_output_under_a_regular_file_exits_2_before_any_trial(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("f").write_text("old", encoding="utf-8")
    _no_trial(monkeypatch)
    assert main(["trial", "--algorithm", "anonymous", "--graph", "ring",
                 "--n", "6", "--trials", "2", "--out", "f/x.csv"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert [p.name for p in tmp_path.iterdir()] == ["f"]
    assert Path("f").read_text(encoding="utf-8") == "old"


@pytest.mark.parametrize("command, flags, message", [
    ("trial", ["--n", "6", "--ledger-out", "c.csv"],
     "ledger_out requires instrument = true"),
    ("sweep", ["--sizes", "4,8", "--trace-out", "t.txt"],
     "a sweep writes no trace or color ledger; drop trace_out and ledger_out"),
    ("sweep", ["--sizes", "4,8", "--instrument", "true", "--ledger-out", "c.csv"],
     "a sweep writes no trace or color ledger; drop trace_out and ledger_out"),
], ids=["ledger-without-instrument", "sweep-trace", "sweep-ledger"])
def test_an_output_its_run_cannot_write_exits_2_before_any_trial(
        command, flags, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _no_trial(monkeypatch)
    assert main([command, "--algorithm", "anonymous", "--graph", "ring",
                 *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def _empty_name_error(key: str) -> str:
    return (f"error: {key}: an output name cannot be empty; leave {key} unset "
            "to write none\n")


@pytest.mark.parametrize("where", ["flag", "spec"])
@pytest.mark.parametrize("key", OUTPUT_FILES)
def test_an_empty_output_name_exits_2_before_any_trial(
        key, where, tmp_path, monkeypatch, capsys):
    """"" names no file: it is refused, not read as no output, which
    would drop the trace or the ledger, or send the CSV to stdout."""
    monkeypatch.chdir(tmp_path)
    _no_trial(monkeypatch)
    flags = ["--instrument", "true"]
    for other, (flag, name) in OUTPUT_FILES.items():
        if other != key:
            flags += [flag, name]
    if where == "flag":
        flags += [OUTPUT_FILES[key][0], ""]
    else:
        Path("run.spec").write_text(f"{key} =\n", encoding="utf-8")
        flags.insert(0, "run.spec")
    assert main(["trial", *flags, "--algorithm", "anonymous", "--graph", "ring",
                 "--n", "6"]) == 2
    assert capsys.readouterr() == ("", _empty_name_error(key))
    assert [p.name for p in tmp_path.iterdir()] == ["run.spec"] * (where == "spec")


@pytest.mark.parametrize("key", OUTPUT_FILES)
def test_an_empty_sweep_output_name_exits_2_before_any_trial(
        key, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _no_trial(monkeypatch)
    assert main(["sweep", "--algorithm", "anonymous", "--graph", "ring",
                 "--sizes", "4,8", OUTPUT_FILES[key][0], ""]) == 2
    assert capsys.readouterr() == ("", _empty_name_error(key))
    assert list(tmp_path.iterdir()) == []


def test_an_empty_replay_trace_name_exits_2_before_the_replay(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "reference_replay",
                        lambda: pytest.fail("the replay ran"))
    assert main(["replay", "--trace-out", ""]) == 2
    assert capsys.readouterr() == ("", _empty_name_error("trace_out"))
    assert list(tmp_path.iterdir()) == []


def test_a_trial_reports_its_outputs_in_order(tmp_path, monkeypatch, capsys):
    """The CSV, then the trace, then the ledger, then the summary line."""
    monkeypatch.chdir(tmp_path)
    flags = ["--instrument", "true"]
    for flag, name in OUTPUT_FILES.values():
        flags += [flag, name]
    assert main(["trial", "--algorithm", "anonymous", "--graph", "ring",
                 "--n", "6", "--trials", "2", *flags]) == 0
    *wrote, summary = capsys.readouterr().err.splitlines()
    assert wrote == [f"wrote {name}" for _, name in OUTPUT_FILES.values()]
    assert summary.endswith(": 2/2 trials converged")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        name for _, name in OUTPUT_FILES.values())


@pytest.mark.parametrize("command, kind", [
    (["trial", "{file}"], "spec"),
    (["trial", "--algorithm", "anonymous", "--graph", "file",
      "--graph-file", "{file}"], "graph"),
    (["oracle", "{file}"], "graph"),
    (["trial", "--algorithm", "anonymous", "--graph", "ring", "--n", "4",
      "--daemon", "scripted", "--script-file", "{file}"], "script"),
])
def test_an_input_file_that_is_not_utf8_exits_2(command, kind, tmp_path,
                                                capsys):
    target = tmp_path / "input.txt"
    target.write_bytes({
        "spec": b"algorithm = anonymous\ngraph = ring\nn = 4 \xff\n",
        "graph": b"2 1\n0 \xff1\n",
        "script": b"0:candidacy\xff\n",
    }[kind])
    assert main([arg.format(file=target) for arg in command]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {target}: not UTF-8 text at byte ")
    assert captured.out == ""


RING_TRIAL = ["trial", "--algorithm", "anonymous", "--graph", "ring", "--n", "8",
              "--daemon", "synchronous", "--trials", "2"]
RING_SWEEP = ["sweep", "--algorithm", "anonymous", "--graph", "ring",
              "--daemon", "synchronous", "--trials", "2", "--sizes", "4,8"]


@pytest.mark.parametrize("command, extras, digest", [
    (RING_TRIAL, [[], ["--p", "0.3"], ["--fairness", "3"], ["--x-cap", "7"],
                  ["--sizes", "4,8"], ["--hold-rounds", "3"], ["--graph-seed", "5"],
                  ["--density", "0.2"], ["--graph-file", "g.txt"]], "f1686b900b7a"),
    (RING_SWEEP, [[], ["--check-invariants", "false"], ["--instrument", "true"],
                  ["--n", "8"]], "5f095ad8bdfb"),
], ids=["trial", "sweep"])
def test_keys_a_run_does_not_read_leave_its_csv_alone(command, extras, digest,
                                                      capsys):
    """A key the run does not read is accepted and left out of the spec
    hash: each variant writes the same bytes, under the hash it has
    without the key."""
    outputs = set()
    for extra in extras:
        assert main([*command, *extra]) == 0
        outputs.add(capsys.readouterr().out)
    (csv_text,) = outputs
    assert {line.split(",")[0] for line in csv_text.splitlines()[1:]} == {digest}


def _spec_of(flags):
    """The spec that `--flag value` pairs set."""
    return parse_run_spec(
        "", {RUN_FLAGS[flag]: value for flag, value in zip(flags[::2], flags[1::2])})


@pytest.mark.parametrize("base, flags", [
    (["--graph", "ring", "--n", "8", "--daemon", "aged_fair"], ["--fairness", "3"]),
    (["--graph", "ring", "--n", "8", "--daemon", "random_subset"],
     ["--density", "0.2"]),
    (["--graph", "erdos_renyi", "--n", "8", "--p", "0.5"], ["--p", "0.3"]),
    (["--graph", "erdos_renyi", "--n", "8", "--p", "0.5"], ["--graph-seed", "5"]),
    (["--graph", "ring", "--n", "8", "--algorithm", "byzantine"],
     ["--hold-rounds", "3"]),
])
@pytest.mark.parametrize("command", ["trial", "sweep"])
def test_a_key_the_run_reads_moves_its_hash(base, flags, command):
    base = ["--algorithm", "anonymous", *base]
    assert (spec_hash(_spec_of(base), command)
            != spec_hash(_spec_of(base + flags), command))


def test_sizes_stand_in_for_the_size_parameters_only_in_a_sweep(capsys):
    assert main(["trial", "--algorithm", "anonymous", "--graph", "ring",
                 "--sizes", "4"]) == 2
    assert capsys.readouterr().err == (
        "error: graph kind 'ring' is missing parameter 'n'\n")
    text = "algorithm = anonymous\ngraph = ring\nsizes = 4, 8\n"
    assert parse_run_spec(text, command="sweep") == parse_run_spec(text)
    with pytest.raises(ConfigError,
                       match="^graph kind 'ring' is missing parameter 'n'$"):
        parse_run_spec(text, command="trial")
    # the benchmark parses its sweep, which sets no n, without a command
    ring_sweep = BENCHMARK_WORKLOADS["ring-singleton"].spec_text(0)
    assert parse_run_spec(ring_sweep, command="sweep").n is None


@pytest.mark.parametrize("argv, message", [
    (["trial", "--graph", "ring", "--n", "99999999999999999999"],
     "n = 99999999999999999999 gives 99999999999999999999 nodes; "
     "at most 10000000"),
    (["trial", "--graph", "complete", "--n", "200000"],
     "n = 200000 gives 19999900000 node pairs; at most 100000000"),
    (["trial", "--graph", "grid", "--rows", "100000", "--cols", "100000"],
     "rows = 100000, cols = 100000 gives 10000000000 nodes; at most 10000000"),
    (["trial", "--graph", "star", "--leaves", "99999999999"],
     "leaves = 99999999999 gives 100000000000 nodes; at most 10000000"),
    (["trial", "--graph", "erdos_renyi", "--n", "300000", "--p", "0.5"],
     "n = 300000 gives 44999850000 node pairs; at most 100000000"),
    (["trial", "--graph", "file", "--graph-file", "{big}"],
     "line 1: at most 10000000 nodes, got 99999999999999"),
    (["sweep", "--graph", "ring", "--sizes", "4,99999999999999999999"],
     "sizes item 99999999999999999999 gives 99999999999999999999 nodes; "
     "at most 10000000"),
    (["sweep", "--graph", "complete", "--sizes", "4,20000"],
     "sizes item 20000 gives 199990000 node pairs; at most 100000000"),
], ids=["ring", "complete", "grid", "star", "erdos_renyi", "file", "sweep",
        "sweep-pairs"])
def test_an_oversized_graph_exits_2_before_any_graph_is_built(
        argv, message, tmp_path, monkeypatch, capsys):
    big = tmp_path / "big.txt"
    big.write_text("99999999999999 0\n", encoding="utf-8")
    for name in ("_from_rows", "make_graph", *GRAPH_KINDS):
        monkeypatch.setattr(graphs, name, lambda *args: pytest.fail("built"))
    argv = [word.format(big=big) for word in argv]
    assert main([*argv, "--algorithm", "anonymous"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_sweep_without_sizes_names_sizes(capsys):
    """A sweep sets the size parameters itself, so it is refused for its
    missing sizes, not for a size parameter; G(n, p) still needs p."""
    base = ["sweep", "--algorithm", "anonymous"]
    assert main([*base, "--graph", "ring"]) == 2
    assert capsys.readouterr().err == "error: sweep requires a nonempty 'sizes' list\n"
    for extra in [], ["--sizes", "4,8"]:
        assert main([*base, "--graph", "erdos_renyi", *extra]) == 2
        assert capsys.readouterr().err == (
            "error: graph kind 'erdos_renyi' is missing parameter 'p'\n")


@pytest.mark.parametrize("spec", [
    harness.RunSpec(algorithm="anonymous", graph="file", graph_file="-g.txt",
                    trials=2, master_seed=3),
    harness.RunSpec(algorithm="anonymous", graph="file", graph_file="g.txt",
                    daemon="scripted", script_file="-s.txt", init="all_bot",
                    trials=2, master_seed=3),
], ids=["graph-file", "script-file"])
def test_a_rerun_line_naming_a_file_that_begins_with_a_dash_reruns(
        spec, tmp_path, monkeypatch, capsys):
    """The line reads back to the spec's hash, and runs, with the file name
    as its flag's value."""
    monkeypatch.chdir(tmp_path)
    for name in ("-g.txt", "g.txt"):
        with open(name, "w", encoding="utf-8") as fh:
            write_graph(graphs.make_graph(4, harness.REFERENCE_EDGES), fh)
    Path("-s.txt").write_text("".join(
        line.split()[1] + "\n" for line in harness.REFERENCE_TRACE.splitlines()[1:]),
        encoding="utf-8")
    argv = shlex.split(harness.rerun_command(spec, 1))[1:]
    assert spec_hash(_spec_from_args(read_args(argv))) == spec_hash(spec)
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [spec_hash(spec)] * 2


def test_a_rerun_line_sets_only_the_keys_a_trial_reads():
    spec = harness.RunSpec(
        algorithm="anonymous", graph="ring", n=8, p=0.3, graph_seed=5,
        fairness=3, density=0.2, x_cap=7, hold_rounds=3, sizes=(4, 8),
        trials=4, master_seed=9)
    argv = shlex.split(harness.rerun_command(spec, 3))
    assert argv[:2] == ["mislab", "trial"]
    assert set(argv[2::2]) == {"--algorithm", "--graph", "--n", "--daemon",
                               "--init", "--move-ceiling", "--round-ceiling",
                               "--check-invariants", "--instrument",
                               "--master-seed", "--trials"}
    assert spec_hash(_spec_of(argv[2:])) == spec_hash(spec)
