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

    def enabled_rules(self, g: Graph, cfg: Configuration, u: int) -> tuple[Rule, ...]:
        if cfg.x[u] != g.degree(u):
            return (Rule.REFRESH,)
        s = cfg.s
        if not s[u]:
            if any(s[v] for v in g.adjacency[u]):
                return ()
            return (Rule.TRY_CANDIDACY,)
        if any(s[v] for v in g.adjacency[u]):
            return (Rule.WITHDRAW,)
        return ()

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

    def enabled_rules(self, g: Graph, cfg: Configuration, u: int) -> tuple[Rule, ...]:
        s = cfg.s
        if s[u]:
            if any(s[v] for v in g.adjacency[u]):
                return (Rule.TRY_WITHDRAW,)
            return ()
        if any(s[v] for v in g.adjacency[u]):
            return ()
        return (Rule.CANDIDACY,)

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
