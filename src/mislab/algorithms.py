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
rng) -> (rules, draws, new_s, new_x)`, shared by both rule sets, over the
ascending list of its movers. One loop reads each mover's rule from the
activable map, checks the order and the membership of the list, and
computes every mover's next state from the current `state.s` and
`state.x`, writing none: new_x[i] is the x the move writes, or None if it
writes none. A mover on a probabilistic rule draws its Bernoulli from
`rng`, and a faulty mover's move is its strategy's `act`, taken whole,
each at its node's place in ascending order, so a seed still fixes one
draw per probabilistic move in that order. A list that is empty, not
strictly ascending or names a node without a rule is refused by
`validate_move_set`, which words the violation.
"""

from __future__ import annotations

from typing import Sequence

from .engine import (CANDIDACY, REFRESH, TRY_CANDIDACY, TRY_WITHDRAW, WITHDRAW,
                     validate_move_set)
from .errors import known_kind
from .graphs import Graph


class RuleSet:
    """One `step` for both rule sets (module docstring); a subclass gives
    its `name`, `uses_x`, `rules`, `random_rule` and `enabled_rules`."""

    def step(self, g: Graph, state, nodes: Sequence[int],
             activable: dict[int, str], strategies: dict, rng):
        """(rules, draws, new_s, new_x) of the movers `nodes` (module
        docstring). A Try-candidacy mover's probability is 1 / (1 + max x
        over N[u]): u's own advertised x, not its true degree, is in the
        max, and a faulty neighbor may feed any value into it."""
        if not nodes:
            validate_move_set(g, nodes, activable)
        s, x, adjacency, bernoulli = state.s, state.x, g.adjacency, rng.bernoulli
        rules, draws, new_s, new_x = [], [], [], []
        prev = -1
        for u in nodes:
            rule = activable.get(u)
            if rule is None or u <= prev:
                validate_move_set(g, nodes, activable)
            prev = u
            draw = xu = None
            # the two rule sets alternate, each one's most frequent first
            if rule is TRY_CANDIDACY:
                m = x[u]
                for v in adjacency[u]:
                    if x[v] > m:
                        m = x[v]
                draw = bernoulli(1.0 / (1.0 + m))
                su = True if draw == 1 else s[u]
            elif rule is TRY_WITHDRAW:
                draw = bernoulli(0.5)
                su = False if draw == 1 else s[u]
            elif rule is REFRESH:
                su, xu = s[u], len(adjacency[u])
            elif rule is CANDIDACY:
                su = True
            elif rule is WITHDRAW:
                su = False
            else:  # BYZ
                su, xu = strategies[u].act(state, u, rng)
            rules.append(rule)
            draws.append(draw)
            new_s.append(su)
            new_x.append(xu)
        return rules, draws, new_s, new_x


class ByzantineMIS(RuleSet):
    """Refresh / Try-candidacy / Withdrawal rules over (s, x) states."""

    name = "byzantine"
    uses_x = True
    #: every rule of the algorithm, as a script file may name them
    rules = (REFRESH, TRY_CANDIDACY, WITHDRAW)
    #: the one rule whose command draws a Bernoulli
    random_rule = TRY_CANDIDACY

    def enabled_rules(self, s, x, deg, up, u: int) -> str | None:
        if x[u] != deg[u]:
            return REFRESH
        if not s[u]:
            return None if up[u] else TRY_CANDIDACY
        return WITHDRAW if up[u] else None


class AnonymousMIS(RuleSet):
    """Candidacy / Try-withdrawal rules over bare s states."""

    name = "anonymous"
    uses_x = False
    #: every rule of the algorithm, as a script file may name them
    rules = (CANDIDACY, TRY_WITHDRAW)
    #: the one rule whose command draws a Bernoulli
    random_rule = TRY_WITHDRAW

    def enabled_rules(self, s, x, deg, up, u: int) -> str | None:
        if s[u]:
            return TRY_WITHDRAW if up[u] else None
        return None if up[u] else CANDIDACY


ALGORITHMS = {
    "byzantine": ByzantineMIS(),
    "anonymous": AnonymousMIS(),
}


def get_algorithm(name: str):
    return ALGORITHMS[known_kind(name, ALGORITHMS, "algorithm")]
