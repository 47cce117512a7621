"""The host's speed while a timed call runs.

On a shared host each CPU of the guest drifts between full and about half
speed for a second or more at a time, so repeated runs of the same call
differ by up to 2x and no run length averages that away. HostSpeed samples
the speed during the call: a timer signal fires every PERIOD_S, and the
handler times a fixed snippet of pure-Python work. The host's speed over a
window is NOMINAL_S / (mean snippet time in it), 1.0 on a quiet host. The
call's time with the handler's own time removed, times that speed, is the
time the call would take on a quiet host. Across 2x swings of the host's
speed this tracks the call's time with a correlation of about 0.95, where a
reference loop timed just before and after the call reaches about 0.7.
"""

from __future__ import annotations

import signal
import time

#: Time between samples; the snippet costs about 2% of it.
PERIOD_S = 0.025
#: The snippet's time inside the handler on a quiet 2-core x86 host with
#: Python 3.11.
NOMINAL_S = 0.0005

_N = 1024
_ADJACENCY = tuple(((u - 1) % _N, (u + 1) % _N) for u in range(_N))
_S = tuple(u % 3 == 0 for u in range(_N))


def snippet() -> dict:
    """One guard scan over a ring, shaped like mislab's (tuple indexing, any()
    over neighbours, dict stores)."""
    enabled = {}
    for u in range(_N):
        if _S[u]:
            if any(_S[v] for v in _ADJACENCY[u]):
                enabled[u] = ("withdrawal?",)
        elif not any(_S[v] for v in _ADJACENCY[u]):
            enabled[u] = ("candidacy",)
    return enabled


class HostSpeed:
    """Samples the host's speed from a SIGALRM timer until stop()."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start, duration)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        snippet()
        self.samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def window(self, start: float, end: float) -> dict:
        """Samples taken in [start, end): their count, the time they took,
        and the host's speed (1.0 when none were taken)."""
        inside = [d for t, d in self.samples if start <= t < end]
        speed = NOMINAL_S * len(inside) / sum(inside) if inside else 1.0
        return {"samples": len(inside), "spent_s": sum(inside), "speed": speed}
