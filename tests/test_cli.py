import io
import os
import pkgutil
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import mislab
from mislab import harness
from mislab.algorithms import AnonymousMIS
from mislab.cli import build_parser, main
from mislab.daemons import DAEMON_KINDS
from mislab.engine import CANDIDACY, derive_seed
from mislab.graphs import erdos_renyi, ring, write_graph
from mislab.harness import parse_run_spec, spec_hash

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


def _parse_output(parser, argv, capsys):
    """What parsing argv with parser prints and how it exits: (exit code,
    stdout, stderr)."""
    with pytest.raises(SystemExit) as stop:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return stop.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["trial", "--help"], ["sweep", "-h"],
    ["replay", "--help"], ["oracle", "-h"], ["trial", "--bogus", "1"],
    ["sweep", "a.spec", "b.spec"], ["replay", "--n", "3"], ["oracle"],
    ["nosuch"], ["--bogus", "trial", "--n", "3"], ["trial", "--n"],
])
def test_a_parser_with_only_the_named_subcommands_reads_as_the_full_one(
        argv, capsys):
    """main builds the arguments of the subcommands its command line names
    only; help, usage and error texts and exit codes are the full
    parser's, byte for byte."""
    assert _parse_output(build_parser(argv), argv, capsys) == _parse_output(
        build_parser(), argv, capsys)


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


def test_ledger_output(tmp_path):
    spec = tmp_path / "run.spec"
    spec.write_text(ANON_SPEC + "instrument = true\n", encoding="utf-8")
    ledger_out = tmp_path / "colors.csv"
    assert main(["trial", str(spec), "--ledger-out", str(ledger_out)]) == 0
    lines = ledger_out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "color,size,born,died,withdrawal_moves,success"
    assert len(lines) > 1


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
])
def test_two_outputs_on_one_path_exit_2_before_any_trial(
        flags, keys, name, tmp_path, monkeypatch, capsys):
    """Paths compare as the run would write them: under $MISLAB_OUT, with
    './' dropped."""
    out = tmp_path / "out"
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("MISLAB_OUT", str(out))
    trials = []
    monkeypatch.setattr(harness, "run_trial",
                        lambda *args, **kwargs: trials.append(args))
    assert main(["trial", "--algorithm", "anonymous", "--graph", "ring",
                 "--n", "4", *(flag.format(out=out) for flag in flags)]) == 2
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
