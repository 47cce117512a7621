"""Behaviors for Byzantine nodes.

A faulty node never runs algorithm rules; when the daemon activates it, its
strategy rewrites the node's own s (and x) arbitrarily. Strategies only read
local state, so they stay within the model's information access.
"""

from __future__ import annotations

from .engine import Configuration
from .errors import known_kind
from .graphs import Graph

#: x values are capped machine integers; the candidacy formula only ever puts
#: them in a probability denominator, so any cap is safe.
DEFAULT_X_CAP = 2**32 - 1


def _x_of(cfg: Configuration, u: int) -> int | None:
    return cfg.x[u] if cfg.x is not None else None


class Strategy:
    """Base behavior; x_cap bounds the x values a strategy may advertise."""

    def __init__(self, x_cap: int = DEFAULT_X_CAP):
        self.x_cap = x_cap


class Silent(Strategy):
    """Keeps its state unchanged; disruption by pure scheduling pressure."""

    def act(self, g: Graph, cfg: Configuration, u: int, rng):
        return cfg.s[u], _x_of(cfg, u)


class AlwaysTop(Strategy):
    """Claims set membership forever, pinning neighbors out of candidacy."""

    def act(self, g: Graph, cfg: Configuration, u: int, rng):
        return True, _x_of(cfg, u)


class Oscillate(Strategy):
    """Toggles its s-flag on every activation."""

    def act(self, g: Graph, cfg: Configuration, u: int, rng):
        return (not cfg.s[u]), _x_of(cfg, u)


class DegreeLiar(Strategy):
    """Advertises a huge degree to depress neighbors' candidacy probability."""

    def act(self, g: Graph, cfg: Configuration, u: int, rng):
        return False, self.x_cap


class UniformRandom(Strategy):
    """Fresh uniform s and x on every activation."""

    def act(self, g: Graph, cfg: Configuration, u: int, rng):
        s = rng.random() < 0.5
        x = rng.randint(0, self.x_cap) if cfg.x is not None else None
        return s, x


STRATEGIES = {
    "silent": Silent,
    "always_top": AlwaysTop,
    "oscillate": Oscillate,
    "degree_liar": DegreeLiar,
    "uniform_random": UniformRandom,
}
STRATEGY_KINDS = tuple(STRATEGIES)


def make_strategy(kind: str, x_cap: int = DEFAULT_X_CAP) -> Strategy:
    """A strategy instance. It holds only its x cap, so the trials of a spec
    share it."""
    return STRATEGIES[known_kind(kind, STRATEGIES, "Byzantine strategy")](x_cap)
