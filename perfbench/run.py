"""mislab benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload ring-singleton --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all     # every workload in turn

Run from the root of a checkout; mislab is imported from ./src. Each
invocation of the workload runs in a fresh process (child.py) through
`mislab.cli.main`, the same path as the `mislab` command. A run is:

  1. one verify invocation (untimed; also warms the bytecode cache) that
     checks every trial's final configuration and counts moves and
     transitions exactly;
  2. timed invocations, repeated until --seconds have passed (at least
     MIN_REPS); with --trace 1 they alternate with traced ones. After each
     timed invocation, SETUP_PROBES processes that only set up and exit add
     set-up samples.

The host's speed drifts by up to 2x for a second or more at a time (other
tenants), which no run length averages away. So each invocation samples the
host's speed while it runs (host.py). Every reported time is the measured
time with the sampler's own share removed, times the host's speed over it:
the time on a quiet host. The measured values are printed too and kept in
the result file.

Every invocation's output files are hashed. They must match each other, and
at the default seed they must match digests.json. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}; metric names and
units come from BENCHMARK.json ("end_to_end" with --trace 0, "per_layer" with
--trace 1). A fuller record, with every repetition, goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

OUT_ROOT = ".bench_out"
MIN_REPS = 3
#: Set-up-only processes started after each timed invocation.
SETUP_PROBES = 2
#: A run must end within this many seconds, whatever the program's speed.
RUN_LIMIT_S = 170
#: Layers with spans; "cli" is the entry point's own share. Guard evaluations
#: (algorithms) are counted, not timed.
LAYERS = ("graphs", "engine", "daemons", "byzantine", "analysis", "harness", "cli")


class BenchError(Exception):
    pass


def run_child(mode: str, workload: str, seed: int, outdir: str, deadline: float) -> dict:
    """One fresh process; returns its JSON result plus its setup time."""
    os.makedirs(outdir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    env.pop("MISLAB_OUT", None)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, workload, str(seed), outdir]
    timeout = max(1.0, deadline - time.monotonic())
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} invocation exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"{mode} invocation exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}"}
    result = json.loads(lines[-1])
    result["setup_s"] = result["setup_done"] - spawned
    setup = result["host_setup"]
    result["quiet_setup_s"] = (result["setup_s"] - setup["spent_s"]) * setup["speed"]
    if mode == "setup":
        return result
    if result["exit_code"] != 0:
        return {"error": f"mislab exited {result['exit_code']}: {proc.stderr.strip()[-2000:]}"}
    call = result["host_call"]
    # Factor from measured to quiet-host time for anything inside the call.
    result["scale"] = (1 - call["spent_s"] / result["wall_s"]) * call["speed"]
    return result


def digests(result: dict) -> dict:
    return {key: out["sha256"] for key, out in result["outputs"].items()}


def reference_digests(workload: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)[workload]


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value;
    the maximum (percentile 100) when there are ten samples or fewer."""
    ordered = sorted(values)
    k = len(ordered) - 10
    if k < 1:
        return 100.0, ordered[-1]
    return 100.0 * k / len(ordered), ordered[k - 1]


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    workload = WORKLOADS[name]
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    run_dir = os.path.join(OUT_ROOT, f"{name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    problems: list[str] = []
    expected = reference_digests(name, seed)

    verify = run_child("verify", name, seed, os.path.join(run_dir, "verify"), deadline)
    if "error" in verify:
        raise BenchError(verify["error"])
    checked = verify["checked"]
    bad = [c for c in checked if not (c["ok"] and c["converged"] and not c["ceiling_hit"])]
    if len(checked) != workload.trials:
        problems.append(f"verify saw {len(checked)} trials, expected {workload.trials}")
    for c in bad:
        problems.append(f"trial {c['trial']} at n={c['n']} failed its final-state check "
                        f"(ok={c['ok']}, converged={c['converged']}, "
                        f"ceiling_hit={c['ceiling_hit']})")
    reference = digests(verify)
    if expected is not None and reference != expected:
        problems.append(f"output digests {reference} differ from digests.json {expected}")
    moves = sum(c["moves"] for c in checked)
    transitions = sum(c["transitions"] for c in checked)

    reps: list[dict] = []
    setups: list[dict] = []
    attempted = failed = 0
    measure_end = time.monotonic() + seconds
    modes = ("timed", "traced") if trace else ("timed",)
    while True:
        timed_reps = sum(1 for r in reps if r["mode"] == "timed")
        if time.monotonic() >= measure_end and timed_reps >= MIN_REPS and (
                not trace or len(reps) - timed_reps >= MIN_REPS):
            break
        if time.monotonic() >= deadline:
            problems.append(f"run limit of {RUN_LIMIT_S} s reached after {len(reps)} invocations")
            break
        mode = modes[len(reps) % len(modes)]
        outdir = os.path.join(run_dir, f"rep{len(reps)}")
        result = run_child(mode, name, seed, outdir, deadline)
        attempted += workload.trials
        if "error" in result:
            failed += workload.trials
            problems.append(result["error"])
            break
        if digests(result) != reference:
            failed += workload.trials
            problems.append(f"{mode} invocation {len(reps)} wrote other bytes than the "
                            f"verify invocation: {digests(result)} != {reference}")
        else:
            failed += result["trials"]["trials"] - result["trials"]["converged"]
        if mode == "traced":
            spans = os.path.join(outdir, "spans.jsonl")
            os.replace(spans, os.path.join(run_dir, "spans.jsonl"))
        shutil.rmtree(outdir)
        result["mode"] = mode
        reps.append(result)
        if mode == "timed":
            for _ in range(SETUP_PROBES):
                probe = run_child("setup", name, seed, outdir, deadline)
                if "error" in probe:
                    raise BenchError(probe["error"])
                setups.append(probe)
            shutil.rmtree(outdir)
    if problems:
        failed = attempted

    timed = [r for r in reps if r["mode"] == "timed"]
    if not timed:
        raise BenchError("; ".join(problems) or "no timed invocation completed")
    samples = {
        "wall_s": [r["wall_s"] * r["scale"] for r in timed],
        "us_per_move": [r["wall_s"] * r["scale"] * 1e6 / moves for r in timed],
        "us_per_transition": [r["wall_s"] * r["scale"] * 1e6 / transitions for r in timed],
        "setup_s": [r["quiet_setup_s"] for r in timed + setups],
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
        "host.raw_wall_s": [r["wall_s"] for r in timed],
        "host.raw_setup_s": [r["setup_s"] for r in timed + setups],
        "host.speed": [r["host_call"]["speed"] for r in timed],
    }
    values = {k: statistics.median(v) for k, v in samples.items()}
    if trace:
        traced = [r for r in reps if r["mode"] == "traced"]
        if not traced:
            raise BenchError("; ".join(problems) or "no traced invocation completed")
        samples.update(layer_samples(traced, values["wall_s"], moves, transitions,
                                     verify["outputs"]))
        samples["algorithms.guard_evals"] = [verify["guard_evals"]]
        samples["algorithms.guard_evals_per_move"] = [verify["guard_evals"] / moves]
        values.update({k: statistics.median(v) for k, v in samples.items()
                       if k not in values})
        values.update(trial_percentiles(traced))

    return {
        "workload": name,
        "argv": ["mislab", *workload.argv(seed, "OUTDIR")],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": verify["python"],
        "platform": platform.platform(),
        "elapsed_s": time.monotonic() - started,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "counters": {"trials": workload.trials, "moves": moves, "transitions": transitions,
                     "invocations": len(reps)},
        "digests": reference,
        "digests_checked": expected is not None,
        "outputs_bytes": {k: v["bytes"] for k, v in verify["outputs"].items()},
        "unwrapped": next((r["trace"]["missing"] for r in reps if r["mode"] == "traced"), []),
        "metrics": values,
        "samples": samples,
    }


def layer_samples(traced: list[dict], untraced_wall: float, moves: int,
                  transitions: int, outputs: dict) -> dict:
    """Per-layer metrics from each traced invocation; run.py reports medians."""
    out: dict[str, list[float]] = {}

    def add(name: str, value: float) -> None:
        out.setdefault(name, []).append(value)

    for r in traced:
        t, scale = r["trace"], r["scale"]
        calls, counts = t["calls"], t["counts"]
        self_s = {span: seconds * scale for span, seconds in t["self_s"].items()}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for span, seconds in self_s.items():
            layer_self[span.split(".")[0]] += seconds
        layer_self["cli"] = t["cli_self_s"] * scale
        for span in ("graphs.build", "engine.activable_map", "daemons.select",
                     "byzantine.act", "analysis.is_legitimate", "analysis.ledger_record"):
            add(f"{span}.calls", calls.get(span, 0))
        for span in ("graphs.build", "graphs.safe_zone", "engine.activable_map",
                     "engine.apply_transition", "engine.validate_move_set",
                     "engine.round_advance", "engine.dump_trace", "daemons.select",
                     "byzantine.act", "analysis.is_legitimate",
                     "analysis.locally_alone_set", "analysis.safe_alone_set",
                     "analysis.ledger_record", "harness.output"):
            add(f"{span}.s", self_s.get(span, 0.0))
        add("harness.run_trial.self_s", self_s.get("harness.run_trial", 0.0))
        add("engine.trace_bytes", outputs.get("trace_out", {}).get("bytes", 0))
        selects = calls.get("daemons.select", 0)
        add("daemons.moves_per_select", counts.get("daemons.chosen", 0) / max(selects, 1))
        add("daemons.chosen_over_activable",
            counts.get("daemons.chosen", 0) / max(counts.get("daemons.activable", 0), 1))
        add("harness.trials", len(t["trial_s"]))
        add("harness.moves", moves)
        add("harness.transitions", transitions)
        for layer, seconds in layer_self.items():
            add(f"layer.{layer}.self_s", seconds)
        add("trace.wall_s", r["wall_s"] * scale)
        add("trace.self_sum_over_wall", sum(layer_self.values()) / (r["wall_s"] * scale))
    wall = statistics.median(out["trace.wall_s"])
    out["trace.overhead_frac"] = [wall / untraced_wall - 1]
    return out


def trial_percentiles(traced: list[dict]) -> dict:
    durations = [d * r["scale"] for r in traced for d in r["trace"]["trial_s"]]
    pct, tail_value = tail(durations)
    return {"harness.run_trial.p50_s": statistics.median(durations),
            "harness.run_trial.tail_s": tail_value,
            "harness.run_trial.tail_pct": pct,
            "harness.run_trial.samples": len(durations)}


def load_benchmark() -> dict:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def report(res: dict, specs: list[dict]) -> dict:
    """Prints a readable summary and returns {name: {value, unit}} for `specs`."""
    print(f"== {res['workload']}  seed {res['seed']}  trace {int(res['trace'])}  "
          f"python {res['python']}  nproc {res['nproc']}  "
          f"{res['counters']['invocations']} invocations in {res['elapsed_s']:.1f} s")
    print("   " + " ".join(res["argv"]))
    for problem in res["problems"]:
        print(f"   PROBLEM: {problem}")
    if res["unwrapped"]:
        print(f"   note: not traced, absent from mislab: {', '.join(res['unwrapped'])}")
    c = res["counters"]
    checked = "match digests.json" if res["digests_checked"] else "agree across invocations"
    print(f"   exact: {c['trials']} trials, {c['moves']} moves, {c['transitions']} transitions "
          f"per invocation; digests {checked}")
    print(f"   failed_frac {res['failed'] / max(res['attempted'], 1):.4f} "
          f"({res['failed']} of {res['attempted']} trials)")
    m = res["metrics"]
    print(f"   as measured: wall_s {m['host.raw_wall_s']:.6f} s, "
          f"setup_s {m['host.raw_setup_s']:.6f} s at host speed {m['host.speed']:.3f}; "
          "times below are for a quiet host (speed 1)")
    metrics = {}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        if name not in res["metrics"]:
            raise BenchError(f"metric {name} was not measured")
        value = res["metrics"][name]
        metrics[name] = {"value": value, "unit": unit}
        line = f"   {name:36s} {value:14.6f} {unit}"
        samples = res["samples"].get(name, [])
        if len(samples) > 1:
            q1, q3 = quartiles(samples)
            line += f"   (median of {len(samples)}; quartiles {q1:.6g} .. {q3:.6g})"
        print(line)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="master seed and graph seed of the workload")
    parser.add_argument("--seconds", type=int,
                        help="how long the timed repetitions run "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run traced invocations and report per-layer metrics")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "mislab", "cli.py")):
        print("error: run from the root of a mislab checkout (src/mislab not found)",
              file=sys.stderr)
        return 2
    bench = load_benchmark()
    specs = bench["per_layer" if args.trace else "end_to_end"]
    seconds = args.seconds or bench["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    os.makedirs(OUT_ROOT, exist_ok=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            res = run_workload(name, args.seed, seconds, bool(args.trace))
            metrics = report(res, specs)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        path = os.path.join(OUT_ROOT, f"result-{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(res, fh, indent=1)
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
