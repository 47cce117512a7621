import builtins
import statistics
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mislab import harness
from mislab.algorithms import get_algorithm
from mislab.analysis import (
    all_maximal_independent_sets,
    is_legitimate,
    locally_alone_set,
)
from mislab.daemons import DAEMON_KINDS
from mislab.engine import INITIAL_PRESETS, Configuration, is_stable
from mislab.errors import ConfigError, replace
from mislab.graphs import ring, write_graph
from mislab.harness import (
    SWEEP_COLUMNS,
    RunSpec,
    build_graph,
    canonical_text,
    default_round_ceiling,
    legitimacy_round_bound,
    parse_run_spec,
    prepare,
    reference_replay,
    run_sweep,
    run_trial,
    run_trials,
    spec_hash,
    sweep_csv_text,
    trial_csv_text,
    validate_run_spec,
)
from reference import safe_alone_set, traced_trial

SPEC_TEXT = """
# anonymous baseline
algorithm = anonymous
graph = erdos_renyi
n = 10
p = 0.3
graph_seed = 4
daemon = random_subset
density = 0.4
init = random
trials = 6
master_seed = 99
instrument = true
"""


def test_parse_run_spec_round_trips_values():
    spec = parse_run_spec(SPEC_TEXT)
    assert spec.algorithm == "anonymous"
    assert spec.graph == "erdos_renyi"
    assert (spec.n, spec.p, spec.graph_seed) == (10, 0.3, 4)
    assert spec.daemon == "random_subset"
    assert spec.density == 0.4
    assert spec.trials == 6
    assert spec.instrument is True


def test_parse_run_spec_byzantine_fields():
    spec = parse_run_spec("""
algorithm = byzantine
graph = ring
n = 12
byzantine = 0, 6
strategies = 0:oscillate, 6:degree_liar:1000
daemon = aged_fair
fairness = 12
""")
    assert spec.byzantine == (0, 6)
    assert spec.strategies == ((0, "oscillate", None), (6, "degree_liar", 1000))


def test_parse_run_spec_errors():
    with pytest.raises(ConfigError):
        parse_run_spec("graph = ring\nn = 4\n")  # missing algorithm
    with pytest.raises(ConfigError):
        parse_run_spec("algorithm = anonymous\n")  # missing graph
    with pytest.raises(ConfigError):
        parse_run_spec("algorithm = anonymous\ngraph = ring\nn = 4\nwat = 1\n")
    with pytest.raises(ConfigError):
        parse_run_spec("algorithm = anonymous\ngraph = ring\nn = 4\njust a line\n")
    with pytest.raises(ConfigError):
        parse_run_spec(
            "algorithm = anonymous\ngraph = ring\nn = 4\ninstrument = maybe\n")


def test_validation_rules():
    with pytest.raises(ConfigError):
        validate_run_spec(RunSpec(algorithm="anonymous", graph="ring", n=4,
                                  byzantine=(0,)))
    with pytest.raises(ConfigError):
        validate_run_spec(RunSpec(algorithm="byzantine", graph="ring", n=4,
                                  instrument=True))
    with pytest.raises(ConfigError):
        validate_run_spec(RunSpec(algorithm="anonymous", graph="ring", n=4,
                                  trials=0))
    with pytest.raises(ConfigError):
        validate_run_spec(RunSpec(algorithm="byzantine", graph="ring", n=4,
                                  byzantine=(0,),
                                  strategies=((1, "silent", None),)))
    with pytest.raises(ConfigError):
        validate_run_spec(RunSpec(algorithm="byzantine", graph="ring", n=4,
                                  byzantine=(0, 1),
                                  strategies=((0, "silent", None),
                                              (0, "oscillate", None))))
    with pytest.raises(ConfigError, match="^duplicate node in byzantine$"):
        validate_run_spec(RunSpec(algorithm="byzantine", graph="ring", n=8,
                                  byzantine=(1, 1)))


def test_byzantine_node_must_exist_in_graph():
    spec = RunSpec(algorithm="byzantine", graph="ring", n=4, byzantine=(9,))
    with pytest.raises(ConfigError):
        run_trial(spec, 0)


def test_byzantine_nodes_must_fit_every_sweep_size(monkeypatch):
    monkeypatch.setattr(harness, "prepare", lambda spec: pytest.fail("prepared"))
    spec = RunSpec(algorithm="byzantine", graph="ring", daemon="aged_fair",
                   sizes=(3000, 4), trials=3, byzantine=(10,))
    with pytest.raises(ConfigError,
                       match="^Byzantine node 10 outside graph of size 4$"):
        run_sweep(spec)


def test_spec_hash_tracks_semantics_not_outputs():
    spec = parse_run_spec(SPEC_TEXT)
    assert spec_hash(spec) == spec_hash(replace(spec, out="elsewhere.csv"))
    assert spec_hash(spec) != spec_hash(replace(spec, master_seed=100))
    assert "master_seed = 99" in canonical_text(spec)


def test_single_node_trial():
    spec = RunSpec(algorithm="anonymous", graph="ring", n=1, init="all_bot",
                   daemon="singleton", master_seed=1)
    record = run_trial(spec, 0).record
    assert record.converged
    assert record.moves == 1
    assert record.set_size == 1
    assert record.criterion == "stable"


def test_trial_csv_reproducible_and_well_formed():
    spec = parse_run_spec(SPEC_TEXT)
    a = trial_csv_text(spec, [o.record for o in run_trials(spec)])
    b = trial_csv_text(spec, [o.record for o in run_trials(spec)])
    assert a == b
    lines = a.splitlines()
    assert lines[0] == ("spec_hash,trial,seed,moves,rounds,converged,"
                        "criterion,set_size,ceiling_hit")
    assert len(lines) == 1 + spec.trials
    assert all(line.startswith(spec_hash(spec) + ",") for line in lines[1:])


def test_sweep_csv_reproducible():
    spec = RunSpec(algorithm="anonymous", graph="ring", init="random",
                   daemon="conflict_greedy", trials=8, master_seed=5,
                   sizes=(4, 8))
    a = sweep_csv_text(spec, run_sweep(spec))
    b = sweep_csv_text(spec, run_sweep(spec))
    assert a == b
    assert len(a.splitlines()) == 3


@given(st.lists(st.integers(0, 10**6) | st.integers(10**12 - 10**3, 10**12 + 10**3)
                | st.integers(0, 2 * 10**12), min_size=1, max_size=30))
def test_sweep_mean_and_std_cells_are_those_of_statistics(values):
    """The summary computes the mean and the sample std itself, without
    the statistics module, and its cells read as that module's do."""
    row = harness._summary("moves", values)
    assert harness._cell(row["mean_moves"]) == harness._cell(statistics.fmean(values))
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    assert harness._cell(row["std_moves"]) == harness._cell(std)


def test_sweep_std_of_one_value_is_zero():
    assert harness._summary("moves", [10**12])["std_moves"] == 0.0


def test_sweep_single_node_row():
    spec = RunSpec(algorithm="anonymous", graph="ring", init="all_bot",
                   daemon="synchronous", trials=20, master_seed=3, sizes=(1,))
    row = run_sweep(spec)[0]
    assert tuple(row) == SWEEP_COLUMNS[1:]
    assert row["mean_moves"] == 1.0
    assert row["moves_bound_3n2"] == 3


def test_moves_by_rule_tallies_the_run():
    spec = RunSpec(algorithm="anonymous", graph="ring", n=8, init="random",
                   daemon="conflict_greedy", master_seed=8)
    record = run_trial(spec, 0).record
    assert sum(record.moves_by_rule.values()) == record.moves


def test_byzantine_ring_sweep_reports_round_columns():
    spec = RunSpec(algorithm="byzantine", graph="ring", init="random",
                   daemon="aged_fair", trials=10, master_seed=19,
                   byzantine=(0,), strategies=((0, "oscillate", None),),
                   sizes=(8, 16))
    rows = run_sweep(spec)
    for row, n in zip(rows, (8, 16)):
        assert row["delta"] == 2
        assert row["converged"] == 10
        # fixed-degree rings: mean rounds stay well under e*(delta+1)*n
        assert row["mean_rounds"] <= row["rounds_bound_linear"]


def test_sweep_requires_sizes_and_generator():
    with pytest.raises(ConfigError):
        run_sweep(RunSpec(algorithm="anonymous", graph="ring", n=4))
    with pytest.raises(ConfigError):
        run_sweep(RunSpec(algorithm="anonymous", graph="file",
                          graph_file="x", sizes=(4,)))


def test_converged_records_pass_independent_recheck():
    anon = RunSpec(algorithm="anonymous", graph="erdos_renyi", n=9, p=0.3,
                   graph_seed=8, init="random", daemon="random_subset",
                   trials=10, master_seed=3)
    algo = get_algorithm("anonymous")
    for outcome in run_trials(anon):
        assert outcome.record.converged
        assert is_stable(algo, outcome.graph, outcome.final)
        assert outcome.record.set_size == len(
            safe_alone_set(outcome.graph, frozenset(), outcome.final))

    byz = RunSpec(algorithm="byzantine", graph="ring", n=12, init="random",
                  daemon="aged_fair", trials=10, master_seed=17,
                  byzantine=(0,), strategies=((0, "always_top", None),))
    for outcome in run_trials(byz):
        assert outcome.record.converged
        assert is_legitimate(outcome.graph, frozenset({0}), outcome.final)


def test_no_byzantines_converges_to_oracle_verified_mis():
    # with an empty Byzantine set, legitimacy means the safe alone set is a
    # maximal independent set of the whole graph
    spec = RunSpec(algorithm="byzantine", graph="erdos_renyi", n=8, p=0.4,
                   graph_seed=12, init="random", daemon="synchronous",
                   trials=12, master_seed=23)
    g = build_graph(spec)
    oracle = all_maximal_independent_sets(g)
    for outcome in run_trials(spec):
        assert outcome.record.converged
        assert safe_alone_set(g, frozenset(), outcome.final) in oracle


def test_move_ceiling_flags_nonconvergence():
    spec = RunSpec(algorithm="anonymous", graph="ring", n=6, init="all_bot",
                   daemon="synchronous", master_seed=2, move_ceiling=1)
    record = run_trial(spec, 0).record
    assert record.ceiling_hit
    assert not record.converged


def test_round_ceiling_floor_keeps_edgeless_graphs_runnable():
    g = build_graph(RunSpec(algorithm="anonymous", graph="erdos_renyi",
                            n=5, p=0.0))
    assert default_round_ceiling(g) >= 1
    spec = RunSpec(algorithm="anonymous", graph="erdos_renyi", n=5, p=0.0,
                   init="all_bot", daemon="synchronous", master_seed=1)
    record = run_trial(spec, 0).record
    assert record.converged and record.set_size == 5


def test_hold_rounds_reports_first_hit():
    """A confirmation window, or a round ceiling that cuts it short, leaves
    a converged record at the first hit. An anonymous trial stops at
    stability, so a window changes nothing in its record."""
    byzantine = RunSpec(algorithm="byzantine", graph="ring", n=10,
                        init="random", daemon="synchronous", master_seed=41,
                        byzantine=(0,), strategies=((0, "oscillate", None),))
    anonymous = replace(byzantine, algorithm="anonymous", byzantine=(),
                        strategies=())
    for base, cut in ((byzantine, False), (byzantine, True), (anonymous, False)):
        plain = run_trial(base, 2).record
        full = run_trial(replace(base, hold_rounds=3), 2).record
        held = (run_trial(replace(base, hold_rounds=3,
                                  round_ceiling=plain.rounds + 1), 2).record
                if cut else full)
        assert held.converged and not held.ceiling_hit
        assert (held.moves, held.rounds) == (plain.moves, plain.rounds)
        if cut:
            assert plain.transitions < held.transitions < full.transitions
        if base is anonymous:
            assert held == plain


def test_scripted_daemon_via_spec_file(tmp_path):
    script = tmp_path / "steps.txt"
    script.write_text(
        "0:candidacy,1:candidacy,2:candidacy,3:candidacy\n", encoding="utf-8")
    spec = RunSpec(algorithm="anonymous", graph="ring", n=4, init="all_bot",
                   daemon="scripted", script_file=str(script), master_seed=0,
                   move_ceiling=4)
    record = run_trial(spec, 0).record
    assert record.moves == 4
    assert record.ceiling_hit  # all-up ring is not stable; script ends there


def _script_of(trace) -> str:
    """A trace's moves and draws as script lines."""
    return "".join(
        ",".join(f"{node}:{rule}:{'-' if d is None else d}"
                 for (node, rule), d in zip(step.moves, step.draws)) + "\n"
        for step in trace.steps)


@pytest.mark.parametrize("daemon", DAEMON_KINDS)
@pytest.mark.parametrize("init", INITIAL_PRESETS)
@pytest.mark.parametrize("graph", [
    {"graph": "ring", "n": 12},
    {"graph": "grid", "rows": 3, "cols": 4},
    {"graph": "erdos_renyi", "n": 14, "p": 0.3, "graph_seed": 2},
], ids=["ring", "grid", "erdos_renyi"])
def test_anonymous_set_size_is_the_rescanned_settled_set(
        tmp_path, graph, init, daemon):
    """An anonymous trial counts its set size from the stepper's s and up;
    it is the size of the locally alone set of its final configuration,
    for trials that converge and for trials a move ceiling stops. A
    scripted trial replays a singleton trial's moves and draws."""
    base = RunSpec(algorithm="anonymous", **graph, init=init, master_seed=7,
                   daemon=daemon)
    if daemon == "scripted":
        _, trace = traced_trial(replace(base, daemon="singleton"), 0)
        script = tmp_path / "script.txt"
        script.write_text(_script_of(trace), encoding="utf-8")
        base = replace(base, script_file=str(script))
    for ceiling in (0, 3):
        spec = replace(base, move_ceiling=ceiling,
                       trials=1 if daemon == "scripted" else 3)
        for outcome in run_trials(spec):
            assert outcome.record.set_size == len(
                locally_alone_set(outcome.graph, outcome.final))


def test_sweep_set_sizes_are_the_rescanned_settled_sets(monkeypatch):
    seen = []
    run_trial_of = harness.run_trial

    def capturing(spec, trial_index, **kwargs):
        outcome = run_trial_of(spec, trial_index, **kwargs)
        seen.append(outcome)
        return outcome

    monkeypatch.setattr(harness, "run_trial", capturing)
    run_sweep(RunSpec(algorithm="anonymous", graph="grid", sizes=(1, 6, 16),
                      daemon="singleton", trials=3, master_seed=3))
    assert len(seen) == 9
    for outcome in seen:
        assert outcome.record.set_size == len(
            locally_alone_set(outcome.graph, outcome.final))


def test_per_spec_work_is_done_once(tmp_path, monkeypatch):
    """Validation, the graph, the script and the two safe zones belong to
    the spec: one run_trials prepares them once for all its trials, and a
    sweep once per size."""
    calls = Counter()
    per_spec = ("validate_run_spec", "build_graph", "_load_script", "safe_zone")
    for name in per_spec:
        def counting(*args, _name=name, _fn=getattr(harness, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(harness, name, counting)
    script = tmp_path / "steps.txt"
    script.write_text("0:candidacy,2:candidacy\n", encoding="utf-8")
    for spec in (
            RunSpec(algorithm="byzantine", graph="grid", rows=6, cols=6,
                    daemon="aged_fair", byzantine=(0, 20), master_seed=5,
                    trials=12),
            RunSpec(algorithm="anonymous", graph="ring", n=4, init="all_bot",
                    daemon="scripted", script_file=str(script), trials=3)):
        calls.clear()
        assert len(list(run_trials(spec))) == spec.trials
        assert max(calls[name] for name in per_spec[:3]) <= 1, calls
        assert calls["safe_zone"] <= 2, calls
    calls.clear()
    rows = run_sweep(RunSpec(algorithm="byzantine", graph="ring", sizes=(6, 9, 12),
                             byzantine=(0,), trials=4))
    assert [row["trials"] for row in rows] == [4, 4, 4]
    assert calls["validate_run_spec"] <= 3 and calls["build_graph"] <= 3, calls
    assert calls["safe_zone"] <= 6, calls


def test_a_graph_file_is_read_once_per_spec(tmp_path, monkeypatch):
    path = tmp_path / "g.txt"
    with open(path, "w", encoding="utf-8") as fh:
        write_graph(ring(8), fh)
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)
    monkeypatch.setattr(builtins, "open", counting_open)
    outcomes = list(run_trials(RunSpec(algorithm="anonymous", graph="file",
                                       graph_file=str(path), trials=4)))
    monkeypatch.undo()
    assert len(outcomes) == 4
    assert opened.count(str(path)) == 1


def test_reference_replay_is_clean():
    report = reference_replay()
    assert report.ok, report.problems
    assert report.outcome.record.moves == 18
    assert report.outcome.record.transitions == 8
    assert len(report.trace.splitlines()) == 9


def test_legitimacy_round_bound_value():
    g = build_graph(RunSpec(algorithm="byzantine", graph="ring", n=16))
    # (2 + sqrt(2)) * e * 3 * 16, rounded up
    assert legitimacy_round_bound(g) == 446


@pytest.mark.parametrize("make, field", [
    (lambda: ring(4), "n"),
    (lambda: Configuration((False, True), (1, 1)), "s"),
    (lambda: parse_run_spec(SPEC_TEXT), "trials"),
    (lambda: prepare(parse_run_spec(SPEC_TEXT)), "graph"),
], ids=["Graph", "Configuration", "RunSpec", "Plan"])
def test_a_frozen_record_refuses_assignment(make, field):
    record = make()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


def test_a_record_compares_hashes_and_prints_by_its_fields():
    cfg = Configuration((True, False))
    assert cfg == Configuration(s=(True, False), x=None)
    assert hash(cfg) == hash(Configuration((True, False), None))
    assert replace(cfg, x=(1, 1)) == Configuration((True, False), (1, 1)) != cfg
    assert repr(cfg) == "Configuration(s=(True, False), x=None)"
    with pytest.raises(TypeError):
        replace(cfg, y=1)
    with pytest.raises(TypeError):
        Configuration((True,), s=(False,))
