"""The benchmark's workloads: each is one `mislab` CLI invocation built from a seed.

The seed becomes both `master_seed` (per-trial random streams) and
`graph_seed` (edges of random graph kinds), so the same seed always gives the
same inputs and a new seed gives new ones. Trial counts set how much work one
invocation does. They keep one invocation at 1.5-4 s on a 2-core x86 host
with Python 3.11, so a run repeats it many times, and they make the work of
an invocation vary little from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seed whose output digests are stored in digests.json.
DEFAULT_SEED = 0

#: Output flag -> file name inside an invocation's output directory.
OUTPUT_FILES = {"out": "out.csv", "trace_out": "trace.txt", "ledger_out": "ledger.csv"}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                       # "trial" or "sweep"
    spec: tuple[tuple[str, str], ...]  # run-spec keys, seeds excluded
    outputs: tuple[str, ...]           # output keys from OUTPUT_FILES

    def spec_items(self, seed: int) -> list[tuple[str, str]]:
        return [*self.spec, ("master_seed", str(seed)), ("graph_seed", str(seed))]

    def spec_text(self, seed: int) -> str:
        """The run spec in mislab's `key = value` format, outputs excluded."""
        return "".join(f"{k} = {v}\n" for k, v in self.spec_items(seed))

    @property
    def trials(self) -> int:
        """Trials one invocation runs, over all sweep sizes."""
        spec = dict(self.spec)
        sizes = len(spec["sizes"].split(",")) if "sizes" in spec else 1
        return int(spec["trials"]) * sizes

    def argv(self, seed: int, outdir: str) -> list[str]:
        """Arguments for `mislab.cli.main`, writing every output under outdir."""
        argv = [self.command]
        for key, value in self.spec_items(seed):
            argv += [f"--{key.replace('_', '-')}", value]
        for key in self.outputs:
            argv += [f"--{key.replace('_', '-')}", f"{outdir}/{OUTPUT_FILES[key]}"]
        return argv


WORKLOADS = {w.name: w for w in (
    # One move per transition and every transition rescans all n nodes:
    # bound by engine.activable_map. Two sizes 4x apart show per-move growth in n.
    Workload("ring-singleton", "sweep", (
        ("algorithm", "anonymous"), ("graph", "ring"), ("daemon", "singleton"),
        ("init", "random"), ("sizes", "256,1024"), ("trials", "2"),
    ), ("out",)),
    # About 40 moves per transition under a fair daemon, per-transition
    # legitimacy and invariant checks, Byzantine strategies and a trace dump.
    Workload("grid-byzantine", "trial", (
        ("algorithm", "byzantine"), ("graph", "grid"), ("rows", "32"), ("cols", "32"),
        ("daemon", "aged_fair"), ("byzantine", "0,528"),
        ("strategies", "0:oscillate,528:degree_liar"), ("check_invariants", "true"),
        ("trials", "12"),
    ), ("out", "trace_out")),
    # Hundreds of movers per transition and few transitions per trial: bound
    # by the per-trial O(n^2) graph build and the color ledger.
    Workload("er-sync-ledger", "trial", (
        ("algorithm", "anonymous"), ("graph", "erdos_renyi"), ("n", "2000"),
        ("p", "0.01"), ("daemon", "synchronous"), ("check_invariants", "false"),
        ("instrument", "true"), ("trials", "6"),
    ), ("out", "ledger_out")),
)}
