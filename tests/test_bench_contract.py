"""The interface the benchmark's verify and traced modes rely on.

`perfbench/child.py` wraps the module-level `harness.run_trial`, reads
`.algorithm` and `.byzantine` off its first argument, counts the trials it
sees and checks each captured outcome; on any mismatch the benchmark marks
every trial as failed. Its traced mode patches the names `perfbench/tracer.py`
lists, and crashes if one it evaluates directly is gone. These tests run that
wrapper, that check and the traced mode, so a change that breaks the
interface fails here and not only in the benchmark.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mislab import harness
from mislab.harness import RunSpec, run_sweep, run_trials

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"

#: tracer patch points no longer in mislab: the stepper, the ledger and the
#: streaming trace writer do this work under other names; any other missing
#: name is a new break
STALE_PATCH_POINTS = {
    "mislab.harness.activable_map",
    "mislab.harness.apply_transition",
    "mislab.harness.is_legitimate",
    "mislab.harness.safe_alone_set",
    "mislab.cli.dump_trace",
    "ColorLedger.write_report",
}


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
    outcomes = list(run_trials(spec))
    assert len(captured) == len(outcomes) == 3
    assert _all_ok(captured)


def test_verify_mode_sees_every_trial_of_a_sweep(captured):
    rows = run_sweep(RunSpec(algorithm="anonymous", graph="ring", sizes=(8, 16),
                             daemon="singleton", trials=2))
    assert len(captured) == sum(row["trials"] for row in rows) == 4
    assert [spec.n for spec, _ in captured] == [8, 8, 16, 16]
    assert _all_ok(captured)


def test_the_counts_the_benchmark_divides_by_are_the_trace_moves_and_lines(captured):
    """perfbench/child.py reports each trial's moves as
    sum(record.moves_by_rule.values()) and its transitions as
    record.transitions, and perfbench/run.py divides the wall time by their
    sums (us_per_move, us_per_transition). Both count the whole run the
    trace records, the confirmation window of hold_rounds included, which
    `record.moves`, the count at first legitimacy, leaves out."""
    import child

    spec = RunSpec(algorithm="byzantine", graph="grid", rows=6, cols=6,
                   daemon="aged_fair", byzantine=(0, 20),
                   strategies=((0, "oscillate", None), (20, "degree_liar", None)),
                   hold_rounds=2, trials=3)
    trace = io.StringIO()
    outcomes = list(run_trials(spec, trace_to=trace))
    # every trial's trace opens with its line 0, which holds no move
    lines = [line for line in trace.getvalue().splitlines()
             if not line.startswith("0 - ")]
    checked = [child._check_outcome(s, outcome) for s, outcome in captured]
    assert len(checked) == spec.trials
    assert sum(c["transitions"] for c in checked) == len(lines)
    assert sum(c["moves"] for c in checked) == sum(
        len(line.split()[1].split(",")) for line in lines)
    assert sum(c["moves"] for c in checked) > sum(o.record.moves for o in outcomes)


@pytest.mark.parametrize("workload", ["ring-singleton", "grid-byzantine"])
def test_traced_mode_finds_its_patch_points(tmp_path, workload):
    """`child.py traced` runs the workload under the span tracer: it exits
    0, every name the tracer cannot patch is one already known stale, and
    the daemons' selections are measured as node lists."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("MISLAB_OUT", None)
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "traced", workload, "0",
         str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exit_code"] == 0
    assert set(result["trace"]["missing"]) <= STALE_PATCH_POINTS
    assert result["trace"]["calls"]["harness.run_trial"] >= 1
    # the select wrapper counts the nodes a daemon returns: at least one per
    # selection, and never more than were activable
    counts = result["trace"]["counts"]
    assert 0 < result["trace"]["calls"]["daemons.select"] \
        <= counts["daemons.chosen"] <= counts["daemons.activable"]
