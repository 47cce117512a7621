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
of u's neighbors with s = 1: O(1) per evaluation. The guards of each rule
set are mutually exclusive, so it returns u's one enabled rule, or None.

A transition is one call, `step(g, state, nodes, activable, strategies,
rng) -> (rules, draws, new_s, new_x)`, over the ascending list of its
movers. One loop reads each mover's rule from the activable map, checks
the order and the membership of the list, and computes every mover's next
state from the current `state.s` and `state.x`, writing none: a mover on
the algorithm's `random_rule` draws its Bernoulli from `rng`, and a faulty
mover's move is its strategy's `act`, each at its node's place in
ascending order, so a seed still fixes one draw per probabilistic move in
that order. A list that is empty, not strictly ascending or names a node
without a rule gives None; the stepper then has `validate_move_set` name
the violation. The stepper calls it once per transition.
"""

from __future__ import annotations

from typing import Sequence

from .engine import Rule
from .errors import EngineError, known_kind
from .graphs import Graph

# reading an Enum member off its class costs ten times a global read, so the
# guards and commands compare against and return module globals
_REFRESH, _TRY_CANDIDACY, _WITHDRAW = Rule.REFRESH, Rule.TRY_CANDIDACY, Rule.WITHDRAW
_CANDIDACY, _TRY_WITHDRAW = Rule.CANDIDACY, Rule.TRY_WITHDRAW
_BYZ = Rule.BYZ


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
    #: every rule of the algorithm, as a script file may name them
    rules = (_REFRESH, _TRY_CANDIDACY, _WITHDRAW)
    #: the one rule whose command draws a Bernoulli
    random_rule = _TRY_CANDIDACY

    def enabled_rules(self, s, x, deg, up, u: int) -> Rule | None:
        if x[u] != deg[u]:
            return _REFRESH
        if not s[u]:
            return None if up[u] else _TRY_CANDIDACY
        return _WITHDRAW if up[u] else None

    def step(self, g: Graph, state, nodes: Sequence[int],
             activable: dict[int, Rule], strategies: dict, rng):
        """(rules, draws, new_s, new_x) of the movers `nodes`, or None for
        a bad list (module docstring)."""
        if not nodes:
            return None
        s, x, adjacency, bernoulli = state.s, state.x, g.adjacency, rng.bernoulli
        rules, draws, new_s, new_x = [], [], [], []
        prev = -1
        for u in nodes:
            rule = activable.get(u)
            if rule is None or u <= prev:
                return None
            prev = u
            if rule is _TRY_CANDIDACY:
                draw = bernoulli(candidacy_probability(g, x, u))
                new_s.append(True if draw == 1 else s[u])
                new_x.append(x[u])
            elif rule is _REFRESH:
                draw = None
                new_s.append(s[u])
                new_x.append(len(adjacency[u]))
            elif rule is _WITHDRAW:
                draw = None
                new_s.append(False)
                new_x.append(x[u])
            elif rule is _BYZ:
                draw = None
                su, xu = strategies[u].act(g, state, u, rng)
                new_s.append(su)
                new_x.append(xu)
            else:
                raise EngineError(
                    f"rule {rule.value} does not belong to {self.name}")
            rules.append(rule)
            draws.append(draw)
        return rules, draws, new_s, new_x


class AnonymousMIS:
    """Candidacy / Try-withdrawal rules over bare s states."""

    name = "anonymous"
    uses_x = False
    #: every rule of the algorithm, as a script file may name them
    rules = (_CANDIDACY, _TRY_WITHDRAW)
    #: the one rule whose command draws a Bernoulli
    random_rule = _TRY_WITHDRAW

    def enabled_rules(self, s, x, deg, up, u: int) -> Rule | None:
        if s[u]:
            return _TRY_WITHDRAW if up[u] else None
        return None if up[u] else _CANDIDACY

    def step(self, g: Graph, state, nodes: Sequence[int],
             activable: dict[int, Rule], strategies: dict, rng):
        """(rules, draws, new_s, None) of the movers `nodes`, or None for a
        bad list (module docstring); a faulty mover's x is dropped."""
        if not nodes:
            return None
        s, bernoulli = state.s, rng.bernoulli
        rules, draws, new_s = [], [], []
        prev = -1
        for u in nodes:
            rule = activable.get(u)
            if rule is None or u <= prev:
                return None
            prev = u
            if rule is _TRY_WITHDRAW:
                draw = bernoulli(0.5)
                new_s.append(False if draw == 1 else s[u])
            elif rule is _CANDIDACY:
                draw = None
                new_s.append(True)
            elif rule is _BYZ:
                draw = None
                new_s.append(strategies[u].act(g, state, u, rng)[0])
            else:
                raise EngineError(
                    f"rule {rule.value} does not belong to {self.name}")
            rules.append(rule)
            draws.append(draw)
        return rules, draws, new_s, None


ALGORITHMS = {
    "byzantine": ByzantineMIS(),
    "anonymous": AnonymousMIS(),
}


def get_algorithm(name: str):
    return ALGORITHMS[known_kind(name, ALGORITHMS, "algorithm")]
