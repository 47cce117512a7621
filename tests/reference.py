"""Slow references for the engine's fast paths.

- `paper_rules`: the guards as the paper states them, scanning N(u) for an
  up neighbor and comparing x[u] with the degree. The engine's counted
  guards (`enabled_rules` over s, x, deg, up) must agree with them.
- `apply_transition`: one transition on a whole immutable configuration,
  validated against a full `activable_map` scan and written into a fresh
  copy of the s (and x) vector.
"""

from typing import NamedTuple

from mislab.engine import (
    Configuration,
    Rule,
    activable_map,
    validate_move_set,
)


def paper_rules(algo, g, cfg, u):
    """The enabled rules of u in cfg, read off the paper's guards."""
    s = cfg.s
    up_neighbor = any(s[v] for v in g.adjacency[u])
    if algo.uses_x:
        if cfg.x[u] != g.degree(u):
            return (Rule.REFRESH,)
        if not s[u]:
            return () if up_neighbor else (Rule.TRY_CANDIDACY,)
        return (Rule.WITHDRAW,) if up_neighbor else ()
    if s[u]:
        return (Rule.TRY_WITHDRAW,) if up_neighbor else ()
    return () if up_neighbor else (Rule.CANDIDACY,)


class CountedState(NamedTuple):
    """The lists a stepper keeps: up[u] counts u's neighbors with s = 1."""

    s: list
    x: list | None
    deg: list
    up: list


def counted_state(g, cfg):
    """cfg's counted state, recounted from scratch."""
    s = list(cfg.s)
    return CountedState(
        s, None if cfg.x is None else list(cfg.x),
        [g.degree(u) for u in range(g.n)],
        [sum(1 for v in g.adjacency[u] if s[v]) for u in range(g.n)])


def enabled(algo, g, cfg, u):
    """The counted guard's rules at u, checked against the paper's form."""
    rules = algo.enabled_rules(*counted_state(g, cfg), u)
    assert rules == paper_rules(algo, g, cfg, u), (u, cfg)
    return rules


def apply_transition(algo, g, cfg, moves, rng, byz_strategies=None):
    """Execute a valid move set simultaneously and return (next config,
    draws); draws align with the node-sorted moves, None for deterministic
    rules and faulty-node actions."""
    byz_strategies = byz_strategies or {}
    activable = activable_map(algo, g, cfg, frozenset(byz_strategies))
    ordered = tuple(sorted(moves, key=lambda m: m.node))
    validate_move_set(g, ordered, activable, byz_strategies)
    s = list(cfg.s)
    x = list(cfg.x) if cfg.x is not None else None
    draws = []
    for node, rule in ordered:
        if rule is Rule.BYZ:
            new_s, new_x = byz_strategies[node].act(g, cfg, node, rng)
            draws.append(None)
        else:
            p = algo.rule_probability(g, cfg, node, rule)
            draw = rng.bernoulli(p) if p is not None else None
            draws.append(draw)
            new_s, new_x = algo.apply(g, cfg, node, rule, draw)
        s[node] = new_s
        if x is not None and new_x is not None:
            x[node] = new_x
    return Configuration(tuple(s), tuple(x) if x is not None else None), tuple(draws)
