"""Span tracer for the traced run: wraps the public names through which
`mislab.harness` and `mislab.cli` call into each layer, from outside the
package. The traced child installs the spans and the verify child counts
guard evaluations; timed runs patch nothing.

A span is (id, name, start, end, parent id, trial id). Self time of a span is
its duration minus the durations of the wrapped calls made inside it, so the
self times of all spans plus the entry point's own share add up to the wall
time of the `mislab.cli.main` call.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

#: Names bound in mislab.harness, called once per trial or per transition.
HARNESS_CALLS = {
    "build_graph": "graphs.build",
    "safe_zone": "graphs.safe_zone",
    "activable_map": "engine.activable_map",
    "apply_transition": "engine.apply_transition",
    "is_legitimate": "analysis.is_legitimate",
    "locally_alone_set": "analysis.locally_alone_set",
    "safe_alone_set": "analysis.safe_alone_set",
    "run_trial": "harness.run_trial",
}

#: Names bound in mislab.cli that write the outputs.
CLI_CALLS = {
    "dump_trace": "engine.dump_trace",
    "trial_csv_text": "harness.output",
    "sweep_csv_text": "harness.output",
    "_write": "harness.output",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[list] = []   # [span id, time spent in child spans]
        self._next_id = 0
        self._trial = None

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.self_s[name] += duration - frame[1]
                tracer.calls[name] += 1
                tracer.spans.append(
                    (span_id, name, start, end, parent, tracer._trial))
        return wrapper

    def count(self, key: str, fn):
        """Counts calls without a span."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def new_trial(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._trial = tracer.counts["trials_started"]
            tracer.counts["trials_started"] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._trial = None
        return wrapper

    def select_ratio(self, fn):
        """Counts the nodes a daemon chose against the nodes it could choose."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(daemon, g, cfg, activable, *args, **kwargs):
            chosen = fn(daemon, g, cfg, activable, *args, **kwargs)
            counts["daemons.activable"] += len(activable)
            counts["daemons.chosen"] += len(chosen)
            return chosen
        return wrapper

    def _patch(self, owner, attr: str, make):
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)   # only methods the class defines
        else:
            original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, make(original))

    def count_guards(self) -> None:
        """Count calls to each algorithm's enabled_rules. Guards run about n
        times per transition, so this is done in the untimed verify run:
        a wrapper there would inflate the traced run's engine times."""
        from mislab import algorithms

        for cls in _classes_defining(algorithms, "enabled_rules"):
            self._patch(cls, "enabled_rules",
                        functools.partial(self.count, "algorithms.guard_evals"))

    def install(self) -> None:
        """Wrap every layer boundary. Names a later version of mislab no
        longer has are listed in `missing` and skipped."""
        from mislab import analysis, byzantine, cli, daemons, engine, harness

        for attr, name in HARNESS_CALLS.items():
            self._patch(harness, attr, functools.partial(self.wrap, name))
        self._patch(harness, "run_trial", self.new_trial)
        for attr, name in CLI_CALLS.items():
            self._patch(cli, attr, functools.partial(self.wrap, name))
        self._patch(engine, "validate_move_set",
                    functools.partial(self.wrap, "engine.validate_move_set"))
        self._patch(engine.RoundTracker, "advance",
                    functools.partial(self.wrap, "engine.round_advance"))
        for cls in daemons.Daemon.__subclasses__():
            self._patch(cls, "select",
                        lambda fn: self.wrap("daemons.select", self.select_ratio(fn)))
        for cls in _classes_defining(byzantine, "act"):
            self._patch(cls, "act", functools.partial(self.wrap, "byzantine.act"))
        self._patch(analysis.ColorLedger, "record",
                    functools.partial(self.wrap, "analysis.ledger_record"))
        for attr in ("write_report", "report_rows"):
            self._patch(analysis.ColorLedger, attr,
                        functools.partial(self.wrap, "harness.output"))

    def trial_durations(self) -> list[float]:
        return [end - start for _, name, start, end, _, _ in self.spans
                if name == "harness.run_trial"]

    def top_level_s(self) -> float:
        return sum(end - start for _, _, start, end, parent, _ in self.spans
                   if parent is None)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, trial in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "trial": trial}) + "\n")


def _classes_defining(module, attr: str) -> list[type]:
    return [obj for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
            and attr in obj.__dict__]
