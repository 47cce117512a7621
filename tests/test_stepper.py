"""Seeded trials and scripted replays drive one stepper, `engine.Activity`:
a trial's recorded moves and draws, fed back as a script, give the same
execution."""

from collections import Counter

import pytest

from mislab.algorithms import ByzantineMIS, get_algorithm
from mislab.engine import Configuration, FairnessAges, Rule, run_script
from mislab.graphs import make_graph
from mislab.harness import RunSpec, run_trial


def reversed_steps(trace):
    """The steps with each move set listed in descending node order: a
    script's draws follow its moves, whatever order they are listed in."""
    return [type(step)(step.moves[::-1], step.draws[::-1], step.config)
            for step in trace.steps]


@pytest.mark.parametrize("algorithm, daemon, seed", [
    ("anonymous", "random_subset", 3),
    ("anonymous", "synchronous", 4),
    ("byzantine", "aged_fair", 5),
    ("byzantine", "conflict_greedy", 6),
])
def test_script_of_a_trial_trace_replays_it(algorithm, daemon, seed):
    spec = RunSpec(algorithm=algorithm, graph="grid", rows=4, cols=5,
                   daemon=daemon, master_seed=seed)
    outcome = run_trial(spec, 0, want_trace=True)
    trace = outcome.trace
    assert trace.steps
    script = [[(m.node, m.rule, d) for m, d in zip(step.moves, step.draws)]
              for step in reversed_steps(trace)]
    replayed = run_script(get_algorithm(algorithm), outcome.graph,
                          trace.initial, script)
    assert replayed.steps == trace.steps
    assert replayed.round_ends == trace.round_ends


def test_script_draws_follow_their_moves_in_any_listed_order():
    g = make_graph(3, [(0, 1), (1, 2)])
    algo = get_algorithm("anonymous")
    up = Configuration((True, True, False))
    ascending = run_script(algo, g, up, [[(0, Rule.TRY_WITHDRAW, 1),
                                          (1, Rule.TRY_WITHDRAW, 0)]])
    descending = run_script(algo, g, up, [[(1, Rule.TRY_WITHDRAW, 0),
                                           (0, Rule.TRY_WITHDRAW, 1)]])
    assert ascending.final.s == descending.final.s == (False, True, False)
    assert ascending.steps == descending.steps


def test_call_budget_of_a_fair_byzantine_grid_trial(monkeypatch):
    """An aged_fair Byzantine grid trial with invariants on makes one `step`
    call per honest move, reads no age through the `FairnessAges` view
    (the daemon and the fairness check read the stamps), and evaluates
    guards exactly as often as the counted engine did before `step` was
    fused: 1599 times at this seed."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for cls, name in ((ByzantineMIS, "step"), (ByzantineMIS, "enabled_rules"),
                      (FairnessAges, "__getitem__")):
        monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
    spec = RunSpec(algorithm="byzantine", graph="grid", rows=12, cols=12,
                   daemon="aged_fair", byzantine=(0, 77),
                   strategies=((0, "oscillate", None), (77, "degree_liar", None)),
                   check_invariants=True, master_seed=7)
    outcome = run_trial(spec, 0, want_trace=True)
    assert outcome.record.converged and outcome.record.transitions == 69
    honest = sum(m.rule is not Rule.BYZ
                 for step in outcome.trace.steps for m in step.moves)
    assert honest == 380
    assert calls["step"] == honest
    assert calls["__getitem__"] == 0
    assert calls["enabled_rules"] == 1599
