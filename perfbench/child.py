"""One workload invocation in a fresh process, the way a user runs mislab.

    python3 perfbench/child.py MODE WORKLOAD SEED OUTDIR

MODE is one of
  setup   -- import mislab, parse the spec and exit: one more set-up sample;
  timed   -- import mislab, parse the spec, time `mislab.cli.main`; patch nothing
             in mislab;
  verify  -- the same call, capturing every trial's outcome to check the final
             configurations with mislab's own predicates, and counting guard
             evaluations (untimed);
  traced  -- the same call under the span tracer (tracer.py).

The last line of stdout is one JSON object; run.py reads it. Setup ends once
mislab is imported and the spec is parsed and validated; the parent measures
setup from before it started this process, on the shared monotonic clock.
From its start to the end of the timed call the child samples the host's
speed (host.py).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

from host import HostSpeed

MODES = ("setup", "timed", "verify", "traced")


def main() -> None:
    mode, workload_name, seed, outdir = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
    if mode not in MODES:
        raise SystemExit(f"unknown mode {mode!r}; expected one of {MODES}")
    host = HostSpeed()
    host.start()
    from workloads import OUTPUT_FILES, WORKLOADS

    import mislab.cli
    import mislab.harness

    workload = WORKLOADS[workload_name]
    mislab.harness.parse_run_spec(workload.spec_text(seed))
    setup_done = time.monotonic()
    setup_end = time.perf_counter()
    if mode == "setup":
        host.stop()
        print(json.dumps({"mode": mode, "setup_done": setup_done,
                          "host_setup": host.window(0.0, setup_end)}))
        return

    captured: list = []
    tracer = None
    if mode != "timed":
        from tracer import Tracer
        tracer = Tracer()
    if mode == "verify":
        _capture_trials(mislab.harness, captured)
        tracer.count_guards()
    elif mode == "traced":
        tracer.install()

    argv = workload.argv(seed, outdir)
    start = time.perf_counter()
    code = mislab.cli.main(argv)
    end = time.perf_counter()
    host.stop()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "mode": mode,
        "exit_code": code,
        "setup_done": setup_done,
        "wall_s": end - start,
        "host_setup": host.window(0.0, setup_end),
        "host_call": host.window(start, end),
        "peak_rss_mb": peak_rss_kb / 1024,
        "python": sys.version.split()[0],
        "outputs": {},
    }
    for key in workload.outputs:
        path = os.path.join(outdir, OUTPUT_FILES[key])
        with open(path, "rb") as fh:
            data = fh.read()
        result["outputs"][key] = {"sha256": hashlib.sha256(data).hexdigest(),
                                  "bytes": len(data)}
    result["trials"] = _csv_trials(os.path.join(outdir, OUTPUT_FILES["out"]),
                                   workload.command)
    if mode == "verify":
        result["guard_evals"] = tracer.counts["algorithms.guard_evals"]
        result["checked"] = [_check_outcome(spec, outcome) for spec, outcome in captured]
    elif mode == "traced":
        result["trace"] = _trace_summary(tracer, end - start)
        tracer.write_spans(os.path.join(outdir, "spans.jsonl"))
    print(json.dumps(result))


def _capture_trials(harness, captured: list) -> None:
    run_trial = harness.run_trial

    def capturing(spec, trial_index, *args, **kwargs):
        outcome = run_trial(spec, trial_index, *args, **kwargs)
        captured.append((spec, outcome))
        return outcome
    harness.run_trial = capturing


def _csv_trials(path: str, command: str) -> dict:
    """Trial counts from the CSV the run wrote: how many ran and converged.
    A trial stopped by a ceiling has not converged."""
    with open(path, encoding="utf-8") as fh:
        header, *rows = [line.rstrip("\n").split(",") for line in fh]
    rows = [dict(zip(header, row)) for row in rows]
    if command == "sweep":
        return {"trials": sum(int(r["trials"]) for r in rows),
                "converged": sum(int(r["converged"]) for r in rows)}
    return {"trials": len(rows),
            "converged": sum(r["converged"] == "true" for r in rows)}


def _check_outcome(spec, outcome) -> dict:
    """Seed-independent check of one trial's final configuration.

    anonymous: nothing is activable, and the locally alone set is a maximal
    independent set (is_legitimate with no faulty node checks exactly that).
    byzantine: the final configuration is legitimate.
    """
    from mislab.algorithms import get_algorithm
    from mislab.analysis import is_legitimate, locally_alone_set
    from mislab.engine import activable_map

    g, cfg, record = outcome.graph, outcome.final, outcome.record
    byz = frozenset(spec.byzantine)
    if spec.algorithm == "anonymous":
        ok = (not activable_map(get_algorithm(spec.algorithm), g, cfg)
              and is_legitimate(g, frozenset(), cfg)
              and len(locally_alone_set(g, cfg)) == record.set_size)
    else:
        ok = is_legitimate(g, byz, cfg)
    return {"n": g.n, "trial": record.trial, "ok": bool(ok),
            "converged": record.converged, "ceiling_hit": record.ceiling_hit,
            "moves": sum(record.moves_by_rule.values()),
            "transitions": record.transitions}


def _trace_summary(tracer, wall: float) -> dict:
    return {
        "calls": dict(tracer.calls),
        "self_s": dict(tracer.self_s),
        "counts": dict(tracer.counts),
        "cli_self_s": wall - tracer.top_level_s(),
        "trial_s": tracer.trial_durations(),
        "missing": tracer.missing,
    }


if __name__ == "__main__":
    main()
