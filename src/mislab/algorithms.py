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
of u's neighbors with s = 1: O(1) per evaluation, returning one of the
module's constant rule tuples.

A move is one call, `step(g, s, x, u, rule, rng) -> (new_s, new_x, draw)`:
it reads the current s and x lists, draws its own Bernoulli from `rng` when
the rule is the algorithm's `random_rule` (draw None otherwise), and returns
u's next state. The stepper calls it once per honest mover, in ascending
node order, so a seed still fixes one draw per probabilistic move in that
order.
"""

from __future__ import annotations

from .engine import Rule
from .errors import EngineError, known_kind
from .graphs import Graph

# reading an Enum member off its class costs ten times a global read, so the
# guards and commands compare against module globals and return constant tuples
_REFRESH, _TRY_CANDIDACY, _WITHDRAW = Rule.REFRESH, Rule.TRY_CANDIDACY, Rule.WITHDRAW
_CANDIDACY, _TRY_WITHDRAW = Rule.CANDIDACY, Rule.TRY_WITHDRAW
_ONLY_REFRESH = (_REFRESH,)
_ONLY_TRY_CANDIDACY = (_TRY_CANDIDACY,)
_ONLY_WITHDRAW = (_WITHDRAW,)
_ONLY_CANDIDACY = (_CANDIDACY,)
_ONLY_TRY_WITHDRAW = (_TRY_WITHDRAW,)


def candidacy_probability(g: Graph, x, u: int) -> float:
    """1 / (1 + max x over N[u]), read from the x-values `x`.

    Uses u's own advertised x, not its true degree; the candidacy guard pins
    the two together for honest nodes, while faulty neighbors may feed any
    value into the max.
    """
    m = x[u]
    for v in g.adjacency[u]:
        if x[v] > m:
            m = x[v]
    return 1.0 / (1.0 + m)


class ByzantineMIS:
    """Refresh / Try-candidacy / Withdrawal rules over (s, x) states."""

    name = "byzantine"
    uses_x = True
    #: the one rule whose command draws a Bernoulli
    random_rule = _TRY_CANDIDACY

    def enabled_rules(self, s, x, deg, up, u: int) -> tuple[Rule, ...]:
        if x[u] != deg[u]:
            return _ONLY_REFRESH
        if not s[u]:
            return () if up[u] else _ONLY_TRY_CANDIDACY
        return _ONLY_WITHDRAW if up[u] else ()

    def step(self, g: Graph, s, x, u: int, rule: Rule,
             rng) -> tuple[bool, int, int | None]:
        if rule is _TRY_CANDIDACY:
            draw = rng.bernoulli(candidacy_probability(g, x, u))
            return (True if draw == 1 else s[u]), x[u], draw
        if rule is _REFRESH:
            return s[u], len(g.adjacency[u]), None
        if rule is _WITHDRAW:
            return False, x[u], None
        raise EngineError(f"rule {rule.value} does not belong to {self.name}")


class AnonymousMIS:
    """Candidacy / Try-withdrawal rules over bare s states."""

    name = "anonymous"
    uses_x = False
    #: the one rule whose command draws a Bernoulli
    random_rule = _TRY_WITHDRAW

    def enabled_rules(self, s, x, deg, up, u: int) -> tuple[Rule, ...]:
        if s[u]:
            return _ONLY_TRY_WITHDRAW if up[u] else ()
        return () if up[u] else _ONLY_CANDIDACY

    def step(self, g: Graph, s, x, u: int, rule: Rule,
             rng) -> tuple[bool, None, int | None]:
        if rule is _TRY_WITHDRAW:
            draw = rng.bernoulli(0.5)
            return (False if draw == 1 else s[u]), None, draw
        if rule is _CANDIDACY:
            return True, None, None
        raise EngineError(f"rule {rule.value} does not belong to {self.name}")


ALGORITHMS = {
    "byzantine": ByzantineMIS(),
    "anonymous": AnonymousMIS(),
}


def get_algorithm(name: str):
    return ALGORITHMS[known_kind(name, ALGORITHMS, "algorithm")]
