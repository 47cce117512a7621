"""Seeded trials and scripted trials drive one stepper, `engine.Activity`,
through one loop, `run_trial`: a trial trace's move column, fed back as a
script, gives the same trace, byte for byte."""

import io
from collections import Counter
from dataclasses import replace

import pytest

from mislab.algorithms import ByzantineMIS
from mislab.engine import INITIAL_PRESETS, FixedDraws, RngStream, Rule, derive_seed
from mislab.harness import RunSpec, prepare, run_trial
from reference import Move, apply_transition, traced_trial

UNSCRIPTED = ("synchronous", "aged_fair", "random_subset", "singleton",
              "conflict_greedy")
GRAPHS = ({"graph": "ring", "n": 12}, {"graph": "grid", "rows": 3, "cols": 4},
          {"graph": "erdos_renyi", "n": 14, "p": 0.25, "graph_seed": 3})
#: the strategies that draw nothing from the trial's stream
DRAWLESS = ("silent", "always_top", "oscillate", "degree_liar")


def trace_text(spec, trial=0):
    buf = io.StringIO()
    run_trial(spec, trial, trace_to=buf)
    return buf.getvalue()


def assert_script_replays_trace(spec, path):
    """spec's trace, its move column written to path as a script, and the
    trace of spec under a scripted daemon reading it, are the same bytes."""
    trace = trace_text(spec)
    lines = trace.splitlines()[1:]
    assert lines
    path.write_text("".join(line.split()[1] + "\n" for line in lines),
                    encoding="utf-8")
    assert trace_text(replace(spec, daemon="scripted",
                              script_file=str(path))) == trace


@pytest.mark.parametrize("daemon", UNSCRIPTED)
@pytest.mark.parametrize("algorithm", ["anonymous", "byzantine"])
def test_script_of_a_trial_trace_replays_it(tmp_path, algorithm, daemon):
    for i, graph in enumerate(GRAPHS):
        for j, init in enumerate(INITIAL_PRESETS):
            spec = RunSpec(algorithm=algorithm, daemon=daemon, init=init,
                           master_seed=10 * i + j, **graph)
            assert_script_replays_trace(spec, tmp_path / "script.txt")


@pytest.mark.parametrize("daemon", UNSCRIPTED)
def test_script_of_a_byzantine_trace_replays_it(tmp_path, daemon):
    for k, strategy in enumerate(DRAWLESS):
        spec = RunSpec(algorithm="byzantine", graph="ring", n=16, daemon=daemon,
                       byzantine=(0, 8),
                       strategies=((0, strategy, 30), (8, strategy, None)),
                       master_seed=k)
        assert_script_replays_trace(spec, tmp_path / "script.txt")


def test_script_draws_follow_their_moves_in_any_listed_order(tmp_path):
    spec = RunSpec(algorithm="anonymous", graph="path", n=3, init="all_top",
                   daemon="scripted", move_ceiling=2)
    traces = []
    for line in ("0:withdrawal?:1,1:withdrawal?:0",
                 "1:withdrawal?:0,0:withdrawal?:1"):
        path = tmp_path / "script.txt"
        path.write_text(line + "\n", encoding="utf-8")
        traces.append(trace_text(replace(spec, script_file=str(path))))
    assert traces[0] == traces[1] == (
        "0 - 111\n1 0:withdrawal?:1,1:withdrawal?:0 011\n")


def test_call_budget_of_a_fair_byzantine_grid_trial(monkeypatch):
    """An aged_fair Byzantine grid trial with invariants on makes one `step`
    call per transition, however many nodes move in it, and evaluates
    guards only where a move changed a guard input: 439 times at this
    seed."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for cls, name in ((ByzantineMIS, "step"), (ByzantineMIS, "enabled_rules")):
        monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
    spec = RunSpec(algorithm="byzantine", graph="grid", rows=12, cols=12,
                   daemon="aged_fair", byzantine=(0, 77),
                   strategies=((0, "oscillate", None), (77, "degree_liar", None)),
                   check_invariants=True, master_seed=7)
    record = run_trial(spec, 0).record
    assert record.converged and record.transitions == 69
    honest = sum(count for rule, count in record.moves_by_rule.items()
                 if rule != "byz")
    assert honest == 380
    assert calls["step"] == record.transitions
    assert calls["enabled_rules"] == 439


@pytest.mark.parametrize("script", [None, "0:candidacy?:1,1:byz,2:candidacy?\n"])
def test_a_faulty_mover_draws_at_its_place_in_a_transition(tmp_path, script):
    """A uniform_random faulty node between two honest try-candidacy movers
    of one transition, under the synchronous daemon and under a script that
    forces node 0's draw and leaves node 2's to the stream: the one `step`
    call of the transition draws for node 0, then node 1's strategy, then
    node 2, as the per-move paper-form commands do."""
    spec = RunSpec(algorithm="byzantine", graph="path", n=3, init="all_bot",
                   byzantine=(1,), strategies=((1, "uniform_random", None),),
                   hold_rounds=1)
    seed = derive_seed(spec.master_seed, 0)
    rng = RngStream(seed)
    if script is not None:
        path = tmp_path / "script.txt"
        path.write_text(script, encoding="utf-8")
        spec = replace(spec, daemon="scripted", script_file=str(path))
        rng = FixedDraws(seed)
        rng.forced.extend((1, None))
    outcome, trace = traced_trial(spec, 0)
    (step,) = trace.steps
    assert step.moves == (Move(0, Rule.TRY_CANDIDACY), Move(1, Rule.BYZ),
                          Move(2, Rule.TRY_CANDIDACY))
    plan = prepare(spec)
    after, draws = apply_transition(plan.algorithm, plan.graph, trace.initial,
                                    step.moves, rng, plan.strategies)
    assert step.draws == draws and draws[1] is None and draws[2] in (0, 1)
    assert step.config == after == outcome.final
