"""The two randomized MIS rule sets driven by the engine.

Both follow the join/leave approach: a node volunteers for the independent
set when its neighborhood is clear, and conflicts between adjacent volunteers
are broken by coin flips rather than identifiers. They differ in where the
randomness sits:

  - ByzantineMIS keeps a degree counter x per node and makes *candidacy*
    probabilistic, with probability 1 / (1 + max of x over the closed
    neighborhood), so loud faulty neighbors can only lower the odds, and
    honest nodes two hops away are untouched.
  - AnonymousMIS is single-variable: candidacy is deterministic and
    *withdrawal* flips a fair coin.

Every guard of both rule sets depends only on s[u], on x[u] against deg u,
and on whether some neighbor is up. `enabled_rules` is therefore the counted
guard over the stepper's lists (s, x, deg, up, u), where up[u] is the number
of u's neighbors with s = 1: O(1) per evaluation. Commands and probabilities
read any state with `.s` and `.x`.
"""

from __future__ import annotations

from .engine import Configuration, Rule
from .errors import EngineError, known_kind
from .graphs import Graph


def candidacy_probability(g: Graph, cfg: Configuration, u: int) -> float:
    """1 / (1 + max x over N[u]), read from current x-values.

    Uses u's own advertised x, not its true degree; the candidacy guard pins
    the two together for honest nodes, while faulty neighbors may feed any
    value into the max.
    """
    m = cfg.x[u]
    for v in g.adjacency[u]:
        if cfg.x[v] > m:
            m = cfg.x[v]
    return 1.0 / (1.0 + m)


class ByzantineMIS:
    """Refresh / Try-candidacy / Withdrawal rules over (s, x) states."""

    name = "byzantine"
    uses_x = True

    def enabled_rules(self, s, x, deg, up, u: int) -> tuple[Rule, ...]:
        if x[u] != deg[u]:
            return (Rule.REFRESH,)
        if not s[u]:
            return () if up[u] else (Rule.TRY_CANDIDACY,)
        return (Rule.WITHDRAW,) if up[u] else ()

    def rule_probability(self, g: Graph, cfg: Configuration, u: int,
                         rule: Rule) -> float | None:
        if rule is Rule.TRY_CANDIDACY:
            return candidacy_probability(g, cfg, u)
        return None

    def apply(self, g: Graph, cfg: Configuration, u: int, rule: Rule,
              draw: int | None) -> tuple[bool, int]:
        if rule is Rule.REFRESH:
            return cfg.s[u], g.degree(u)
        if rule is Rule.TRY_CANDIDACY:
            return (True if draw == 1 else cfg.s[u]), cfg.x[u]
        if rule is Rule.WITHDRAW:
            return False, cfg.x[u]
        raise EngineError(f"rule {rule.value} does not belong to {self.name}")


class AnonymousMIS:
    """Candidacy / Try-withdrawal rules over bare s states."""

    name = "anonymous"
    uses_x = False

    def enabled_rules(self, s, x, deg, up, u: int) -> tuple[Rule, ...]:
        if s[u]:
            return (Rule.TRY_WITHDRAW,) if up[u] else ()
        return () if up[u] else (Rule.CANDIDACY,)

    def rule_probability(self, g: Graph, cfg: Configuration, u: int,
                         rule: Rule) -> float | None:
        if rule is Rule.TRY_WITHDRAW:
            return 0.5
        return None

    def apply(self, g: Graph, cfg: Configuration, u: int, rule: Rule,
              draw: int | None) -> tuple[bool, None]:
        if rule is Rule.CANDIDACY:
            return True, None
        if rule is Rule.TRY_WITHDRAW:
            return (False if draw == 1 else cfg.s[u]), None
        raise EngineError(f"rule {rule.value} does not belong to {self.name}")


ALGORITHMS = {
    "byzantine": ByzantineMIS(),
    "anonymous": AnonymousMIS(),
}


def get_algorithm(name: str):
    return ALGORITHMS[known_kind(name, ALGORITHMS, "algorithm")]
