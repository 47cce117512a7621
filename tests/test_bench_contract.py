"""The interface the benchmark's verify mode relies on.

`perfbench/child.py` wraps the module-level `harness.run_trial`, reads
`.algorithm` and `.byzantine` off its first argument, counts the trials it
sees and checks each captured outcome; on any mismatch the benchmark marks
every trial as failed. These tests run that wrapper and that check, so a
change that breaks the interface fails here and not only in the benchmark.
"""

from pathlib import Path

import pytest

from mislab import harness
from mislab.harness import RunSpec, run_sweep, run_trials

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def captured(monkeypatch):
    """The (spec, outcome) pairs perfbench/child.py's trial wrapper sees,
    the wrapper installed for this test only."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import child

    monkeypatch.setattr(harness, "run_trial", harness.run_trial)
    seen: list = []
    child._capture_trials(harness, seen)
    return seen


def _all_ok(captured) -> bool:
    """The benchmark's own check of every captured final configuration."""
    import child

    return all(child._check_outcome(spec, outcome)["ok"]
               for spec, outcome in captured)


def test_verify_mode_sees_every_trial_of_a_spec(captured):
    spec = RunSpec(algorithm="byzantine", graph="ring", n=12, daemon="aged_fair",
                   byzantine=(0, 6), strategies=((0, "oscillate", None),),
                   master_seed=2, trials=3)
    outcomes = run_trials(spec)
    assert len(captured) == len(outcomes) == 3
    assert _all_ok(captured)


def test_verify_mode_sees_every_trial_of_a_sweep(captured):
    rows = run_sweep(RunSpec(algorithm="anonymous", graph="ring", sizes=(8, 16),
                             daemon="singleton", trials=2))
    assert len(captured) == sum(row.trials for row in rows) == 4
    assert [spec.n for spec, _ in captured] == [8, 8, 16, 16]
    assert _all_ok(captured)
