"""The streaming trace encoder against the whole-configuration encoder it
replaced, the streamed `mislab trial --trace-out` file, and the cost of a
line: after line 0, `TraceWriter` re-encodes the movers' entries only."""

import io
import os
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mislab import engine, harness
from mislab.algorithms import AnonymousMIS
from mislab.byzantine import STRATEGY_KINDS
from mislab.cli import main
from mislab.engine import (BYZ, CANDIDACY, INITIAL_PRESETS, REFRESH, RULES,
                           Configuration, TraceWriter)
from mislab.graphs import generate_graph
from mislab.harness import (RunSpec, parse_run_spec, prepare, run_trial,
                            run_trials)
from reference import Move, Trace, TraceStep, recording, traced_trial


def reference_fields(cfg):
    s_text = "".join("1" if v else "0" for v in cfg.s)
    if cfg.x is None:
        return s_text
    return s_text + " " + ",".join(str(v) for v in cfg.x)


def reference_dump(trace, fh):
    """The encoder as it was: every line rebuilt from all n nodes."""
    fh.write(f"0 - {reference_fields(trace.initial)}\n")
    for i, step in enumerate(trace.steps, start=1):
        entries = ",".join(
            f"{m.node}:{m.rule}:{'-' if d is None else d}"
            for m, d in zip(step.moves, step.draws))
        fh.write(f"{i} {entries} {reference_fields(step.config)}\n")


def _reference_text(trace):
    buf = io.StringIO()
    reference_dump(trace, buf)
    return buf.getvalue()


@st.composite
def trial_specs(draw):
    kind = draw(st.sampled_from(["ring", "grid", "erdos_renyi", "star"]))
    if kind == "grid":
        params = {"rows": draw(st.integers(1, 5)), "cols": draw(st.integers(1, 5))}
    elif kind == "star":
        params = {"leaves": draw(st.integers(1, 10))}
    else:
        params = {"n": draw(st.integers(1, 16))}
    if kind == "erdos_renyi":
        params["p"] = draw(st.sampled_from([0.1, 0.3, 0.6]))
    graph_seed = draw(st.integers(0, 1000))
    n = generate_graph(kind, seed=graph_seed, **params).n
    algorithm = draw(st.sampled_from(["anonymous", "byzantine"]))
    byzantine, strategies = (), ()
    if algorithm == "byzantine":
        byzantine = tuple(draw(st.lists(st.integers(0, n - 1), unique=True,
                                        max_size=min(3, n))))
        strategies = tuple(
            (u, draw(st.sampled_from(STRATEGY_KINDS)),
             draw(st.none() | st.integers(0, 20) | st.integers(2**40, 2**70)))
            for u in byzantine)
    return RunSpec(
        algorithm=algorithm, graph=kind, graph_seed=graph_seed, **params,
        daemon=draw(st.sampled_from(["synchronous", "aged_fair", "random_subset",
                                     "singleton", "conflict_greedy"])),
        init=draw(st.sampled_from(INITIAL_PRESETS)),
        master_seed=draw(st.integers(0, 2**32)),
        move_ceiling=draw(st.just(0) | st.integers(1, 60)),
        byzantine=byzantine, strategies=strategies,
        x_cap=draw(st.sampled_from([0, 50, 2**32 - 1, 2**64])),
        hold_rounds=draw(st.integers(0, 2)),
        check_invariants=False)


@settings(max_examples=200, deadline=None)
@given(spec=trial_specs(), trial=st.integers(0, 3))
def test_writer_matches_whole_configuration_encoder(spec, trial):
    streamed = io.StringIO()
    _, trace = traced_trial(spec, trial, trace_to=streamed)
    assert streamed.getvalue() == _reference_text(trace)


#: every (rule, draw) pair a trace entry can end with
SUFFIXES = [(rule, draw) for rule in RULES for draw in (None, 0, 1)]

X_VALUES = st.integers(0, 20) | st.integers(2**40, 2**70)


@st.composite
def writer_runs(draw):
    """An initial configuration of n nodes, with or without x, and lines of
    moves: each a (node, (rule, draw), new s, new x) per mover, at most one
    per node, in any order; a state without x ignores the new x."""
    n = draw(st.integers(1, 12))
    s = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    x = (draw(st.lists(X_VALUES, min_size=n, max_size=n))
         if draw(st.booleans()) else None)
    moves = st.tuples(st.integers(0, n - 1), st.sampled_from(SUFFIXES),
                      st.booleans(), X_VALUES)
    lines = draw(st.lists(st.lists(moves, min_size=1, max_size=n,
                                   unique_by=lambda m: m[0]), max_size=6))
    return s, x, lines


#: every suffix once, over two lines, then a faulty mover whose x changes
#: on three consecutive lines, on the last back to its value of two lines
#: before
EVERY_SUFFIX = (
    [False] * 10, [3, 3, 2, 2, 7, 1, 0, 2**40, 5, 9],
    [[(u, pair, u % 2 == 0, u) for u, pair in enumerate(SUFFIXES[:9])],
     [(u, pair, u % 3 == 0, 2 * u) for u, pair in enumerate(SUFFIXES[9:])],
     [(4, (BYZ, None), True, 2**70)],
     [(4, (BYZ, None), False, 8), (5, (REFRESH, None), False, 2)],
     [(4, (BYZ, None), True, 2**70)]])


@settings(max_examples=120, deadline=None)
@given(run=writer_runs())
@example(run=EVERY_SUFFIX)
def test_writer_encodes_every_entry_as_the_whole_configuration_encoder(run):
    """`record` fed each line's movers, with the state written at the
    movers only, gives the text of the encoder that rebuilds every line
    from the whole configuration: every (rule, draw) suffix, x values that
    change on consecutive lines, and a state without x. The node labels
    come from a table the writer only reads."""
    s, x, lines = run
    state = SimpleNamespace(s=list(s), x=None if x is None else list(x),
                            transitions=0)
    initial = Configuration(tuple(s), None if x is None else tuple(x))
    labels = [str(u) for u in range(len(s))]
    buf = io.StringIO()
    writer = TraceWriter(buf, initial, labels)
    trace = Trace(initial=initial)
    for moves in lines:
        moves = sorted(moves)
        for node, _, new_s, new_x in moves:
            state.s[node] = new_s
            if state.x is not None:
                state.x[node] = new_x
        state.transitions += 1
        nodes = [node for node, _, _, _ in moves]
        rules = [rule for _, (rule, _), _, _ in moves]
        draws = [d for _, (_, d), _, _ in moves]
        writer.record(nodes, rules, draws, state)
        trace.steps.append(TraceStep(
            tuple(map(Move, nodes, rules)), tuple(draws),
            Configuration(tuple(state.s),
                          None if state.x is None else tuple(state.x))))
    assert buf.getvalue() == _reference_text(trace)
    assert labels == [str(u) for u in range(len(s))]


def test_trace_labels_are_built_once_per_spec(monkeypatch):
    """Every writer of a spec's trials reads one table of node labels,
    built by the first."""
    tables = []

    class Recording(TraceWriter):
        def __init__(self, fh, initial, labels=None):
            tables.append(labels)
            super().__init__(fh, initial, labels)

    monkeypatch.setattr(harness, "TraceWriter", Recording)
    spec = RunSpec(algorithm="byzantine", graph="grid", rows=4, cols=5,
                   daemon="aged_fair", byzantine=(3,),
                   strategies=((3, "uniform_random", 50),), trials=3,
                   master_seed=2)
    buf = io.StringIO()
    assert len(list(run_trials(spec, trace_to=buf))) == 3
    assert len(tables) == 3
    assert all(table is tables[0] for table in tables)
    assert tables[0] == [str(u) for u in range(20)]


GRID_FLAGS = ["--algorithm", "byzantine", "--graph", "grid", "--rows", "6",
              "--cols", "7", "--daemon", "aged_fair", "--byzantine", "0,20",
              "--strategies", "0:uniform_random:1000000000000,20:degree_liar",
              "--trials", "4", "--master-seed", "3"]


def test_streamed_trace_file_equals_in_memory_traces(tmp_path, capsys):
    target = tmp_path / "trace.txt"
    assert main(["trial", *GRID_FLAGS, "--out", str(tmp_path / "out.csv"),
                 "--trace-out", str(target)]) == 0
    spec = parse_run_spec("\n".join(
        f"{k[2:].replace('-', '_')} = {v}"
        for k, v in zip(GRID_FLAGS[::2], GRID_FLAGS[1::2])))
    buf = io.StringIO()
    plan = prepare(spec)
    with recording() as traces:
        for t in range(spec.trials):
            run_trial(spec, t, plan=plan)
    for trace in traces:
        reference_dump(trace, buf)
    assert target.read_text(encoding="utf-8") == buf.getvalue()
    # only the finished files are left, and each is reported once
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "trace.txt"]
    assert capsys.readouterr().err.count(f"wrote {target}\n") == 1


class _LineCosts:
    """A sink that records, per written line, its movers and the str()
    calls made since the previous line."""

    def __init__(self, calls):
        self._calls = calls
        self._seen = 0
        self.lines = []

    def write(self, text):
        index, entries, _ = text.split(" ", 2)
        movers = 0 if entries == "-" else entries.count(",") + 1
        self.lines.append((int(index), movers, self._calls[0] - self._seen))
        self._seen = self._calls[0]


@pytest.mark.parametrize("n", [256, 4096])
def test_writer_encodes_only_the_movers_x(monkeypatch, n):
    calls = [0]

    def counting_str(value):
        calls[0] += 1
        return str(value)

    monkeypatch.setattr(engine, "str", counting_str, raising=False)
    sink = _LineCosts(calls)
    spec = RunSpec(algorithm="byzantine", graph="ring", n=n, daemon="singleton",
                   master_seed=1, move_ceiling=600, check_invariants=False)
    record = run_trial(spec, 0, trace_to=sink).record
    assert record.transitions >= 400
    index0, _, initial_calls = sink.lines[0]
    assert (index0, initial_calls) == (0, n)
    assert [i for i, _, _ in sink.lines] == list(range(len(sink.lines)))
    assert len(sink.lines) == record.transitions + 1
    assert all(cost <= movers for _, movers, cost in sink.lines[1:])


def test_writer_joins_x_only_on_lines_where_an_x_changed(monkeypatch):
    """The comma-joined x text is kept between lines: it is joined for line
    0 and again only on a line whose x field differs from the one before."""
    joins = []
    join_x = TraceWriter._join_x
    buf = io.StringIO()

    def counting(self):
        # a join is made before its line is written: numbered by the lines
        # already written
        joins.append(buf.getvalue().count("\n"))
        return join_x(self)

    monkeypatch.setattr(TraceWriter, "_join_x", counting)
    spec = RunSpec(algorithm="byzantine", graph="grid", rows=6, cols=6,
                   daemon="aged_fair", byzantine=(0, 20),
                   strategies=((0, "oscillate", None), (20, "degree_liar", None)),
                   master_seed=3, check_invariants=False)
    run_trial(spec, 0, trace_to=buf)
    x_fields = [line.split(" ")[3] for line in buf.getvalue().splitlines()]
    changed = [i for i in range(1, len(x_fields)) if x_fields[i] != x_fields[i - 1]]
    assert joins == [0, *changed]
    assert 0 < len(changed) < len(x_fields) // 2


def test_writer_rewrites_only_movers():
    """An entry of a non-mover keeps its text even when the configuration
    passed in disagrees: the writer relies on state changing at movers only."""
    cfg = engine.Configuration((False, False, False), (7, 8, 9))
    buf = io.StringIO()
    writer = TraceWriter(buf, cfg)
    writer.record([1], [REFRESH], [None],
                  SimpleNamespace(s=(True, True, True), x=(0, 1, 2),
                                  transitions=1))
    assert buf.getvalue().splitlines() == ["0 - 000 7,8,9", "1 1:refresh:- 010 7,1,9"]


def _plant_eager_candidacy(monkeypatch):
    original = AnonymousMIS.enabled_rules
    monkeypatch.setattr(
        AnonymousMIS, "enabled_rules",
        lambda self, s, x, deg, up, u: (CANDIDACY if not s[u]
                                        else original(self, s, x, deg, up, u)))


def test_invariant_violation_leaves_no_trace_file(monkeypatch, tmp_path, capsys):
    _plant_eager_candidacy(monkeypatch)
    target = tmp_path / "runs" / "trace.txt"
    assert main(["trial", "--algorithm", "anonymous", "--graph", "ring",
                 "--n", "12", "--daemon", "random_subset", "--trials", "5",
                 "--master-seed", "7", "--out", str(tmp_path / "out.csv"),
                 "--trace-out", str(target)]) == 3
    assert "invariant violation: " in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()
    assert not (tmp_path / "out.csv").exists()


def test_relative_trace_out_lands_under_output_dir(monkeypatch, tmp_path, capsys):
    base = tmp_path / "results"
    monkeypatch.setenv("MISLAB_OUT", str(base))
    monkeypatch.chdir(tmp_path)
    assert not base.exists()
    assert main(["trial", "--algorithm", "anonymous", "--graph", "ring",
                 "--n", "6", "--trials", "2", "--trace-out",
                 "deep/er/trace.txt"]) == 0
    target = base / "deep" / "er" / "trace.txt"
    assert f"wrote {target}\n" in capsys.readouterr().err
    lines = target.read_text(encoding="utf-8").splitlines()
    assert sum(line.startswith("0 - ") for line in lines) == 2
    assert os.listdir(target.parent) == ["trace.txt"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["results"]
