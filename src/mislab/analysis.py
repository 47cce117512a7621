"""Correctness predicates, a brute-force enumeration oracle, and the color
ledger that attributes every move of an anonymous run to the batch of
simultaneous candidacies it descends from. The ledger takes each transition
as the stepper returns it, its movers and their rules, and numbers it from
the stepper's `transitions`."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

from .engine import Activity, Configuration, Rule
from .errors import ConfigError, InvariantViolation
from .graphs import Graph, safe_zone


def is_independent(g: Graph, nodes: Iterable[int]) -> bool:
    chosen = set(nodes)
    return all(v not in chosen for u in chosen for v in g.adjacency[u])


def locally_alone_set(g: Graph, cfg: Configuration) -> frozenset[int]:
    """Nodes that are candidates with an all-clear neighborhood.

    These are settled: no rule of either algorithm can ever dislodge them,
    so this set is the independent set under construction.
    """
    s = cfg.s
    alone = frozenset(
        u for u in range(g.n)
        if s[u] and not any(s[v] for v in g.adjacency[u])
    )
    assert is_independent(g, alone)
    return alone


def is_legitimate(g: Graph, byz: frozenset[int], cfg: Configuration) -> bool:
    """The containment target: the safe alone set, the locally alone nodes
    beyond direct Byzantine influence (distance > 1), is a maximal
    independent set of (distance-2 safe zone) union itself.

    Concretely: (i) independent in G, which locally alone nodes always are,
    and (ii) every ground-set node outside it has a neighbor inside it.
    """
    alone = locally_alone_set(g, cfg) & safe_zone(g, byz, 1)
    return all(u in alone or any(v in alone for v in g.adjacency[u])
               for u in safe_zone(g, byz, 2))


class SafeAloneTracker:
    """The safe alone set and the distance-2 coverage that `is_legitimate`
    tests, kept current across transitions.

    The zones are fixed for a run, so they are given once. The state is read
    from the stepper's counted lists (`engine.Activity`): u is locally alone
    when s[u] and up[u] = 0, so that can change only where s or up > 0
    changed, and a change at w can change coverage only on N[w]; `update`
    therefore touches the nodes whose state changed and the neighborhoods of
    the nodes whose status changed, never the whole graph. Without faulty
    nodes both zones are V and `alone` is the settled set.
    """

    def __init__(self, g: Graph, state,
                 zone1: frozenset[int], zone2: frozenset[int]):
        self._g = g
        self._zone1 = zone1
        self.alone: set[int] = set()
        # for each zone-2 node, the number of alone nodes in its closed
        # neighborhood; the ground set is dominated when none is 0
        self._cover = dict.fromkeys(zone2, 0)
        self.uncovered = len(self._cover)
        s, up = state.s, state.up
        for u in zone1:
            if s[u] and not up[u]:
                self._flip(u, 1)

    @property
    def legitimate(self) -> bool:
        """is_legitimate for the configuration last seen."""
        return self.uncovered == 0

    def update(self, state, touched: Iterable[int]) -> list[int]:
        """Account a transition that produced `state` (with `.s` and `.up`,
        as `__init__` reads); `touched` holds the nodes whose s, x or up > 0
        changed, as `Activity.touched` keeps it, or any superset of them:
        alone is s[u] and up[u] = 0, so no other node can change status.
        Returns the nodes that stopped being alone, sorted."""
        s, up = state.s, state.up
        lost = []
        for u in touched:
            if u not in self._zone1:
                continue
            now = s[u] and not up[u]
            if now and u not in self.alone:
                self._flip(u, 1)
            elif not now and u in self.alone:
                self._flip(u, -1)
                lost.append(u)
        return sorted(lost)

    def _flip(self, u: int, delta: int) -> None:
        if delta > 0:
            self.alone.add(u)
        else:
            self.alone.remove(u)
        cover = self._cover
        for w in (u, *self._g.adjacency[u]):
            count = cover.get(w)
            if count is None:
                continue
            cover[w] = count + delta
            if count == 0:
                self.uncovered -= 1
            elif count + delta == 0:
                self.uncovered += 1


def is_candidate_set(g: Graph, cfg: Configuration, nodes: Iterable[int]) -> bool:
    """Candidate set: all members up, and every up neighbor of a member is
    itself a member."""
    group = set(nodes)
    s = cfg.s
    for u in group:
        if not s[u]:
            return False
        for v in g.adjacency[u]:
            if s[v] and v not in group:
                return False
    return True


MAX_ORACLE_NODES = 16


def all_maximal_independent_sets(g: Graph) -> set[frozenset[int]]:
    """Exhaustive subset scan; refused above MAX_ORACLE_NODES nodes."""
    if g.n > MAX_ORACLE_NODES:
        raise ConfigError(
            f"brute-force enumeration limited to {MAX_ORACLE_NODES} nodes, got {g.n}")
    out = set()
    for mask in range(1 << g.n):
        members = [u for u in range(g.n) if mask >> u & 1]
        if not is_independent(g, members):
            continue
        chosen = set(members)
        maximal = all(
            any(v in chosen for v in g.adjacency[u])
            for u in range(g.n) if u not in chosen
        )
        if maximal:
            out.add(frozenset(members))
    return out


@dataclass
class ColorRecord:
    """Lifetime accounting for one color: the batch of nodes that came up
    together at transition `color` (or were up initially, for color 0)."""

    color: int
    members: frozenset[int]
    died: int | None = None
    withdrawal_moves: int = 0
    success: bool | None = None

    @property
    def size(self) -> int:
        return len(self.members)


# reading an Enum member off its class costs ten times a global read
_CANDIDACY, _WITHDRAW = Rule.CANDIDACY, Rule.TRY_WITHDRAW


class ColorLedger:
    """Instrumentation for anonymous runs.

    Tracks per transition i: the freshly-up set A_i, the color of every
    executed candidacy/try-withdrawal move (candidacy moves take their own
    index; a try-withdrawal takes the index since when its node has been
    continuously up), which colors still have possible withdrawal moves,
    and, at each color's death, whether it succeeded: some member is still
    up since the color's birth (its stamp is the color) and has up[u] = 0.
    That is the paper's "some member it never shared with another color
    ended up settled": a member moves under another color only by a
    candidacy after going down, and that candidacy moves its stamp off.

    It reads the live stepper (`engine.Activity`): its graph `g`, `s`, `up`,
    the activable map, and `transitions`, which numbers the transition; a
    stepper that keeps x is refused. A transition writes state only at its
    movers, so the fresh-up set is the movers now up with no "up since"
    stamp, and stamps change only at movers. A transition costs
    O(|movers|), one pass over the activable map, and the members of each
    color that dies.
    """

    def __init__(self, activity: Activity):
        if activity.x is not None:
            raise ConfigError("color instrumentation applies to anonymous runs only")
        self._activity = activity
        s = activity.s
        self._top_since = [0 if up else None for up in s]
        self.records: dict[int, ColorRecord] = {}
        #: the records of colors that have not died, by color
        self._live: dict[int, ColorRecord] = {}
        self.move_colors: list[tuple[int, ...]] = []
        a0 = frozenset(u for u, up in enumerate(s) if up)
        if a0:
            self.records[0] = self._live[0] = ColorRecord(0, a0)
        self._scan_possible_moves()

    @property
    def fresh_sets(self) -> dict[int, frozenset[int]]:
        """Each color's members: the nodes that came up at its index."""
        return {color: r.members for color, r in self.records.items()}

    def record(self, nodes: Sequence[int], rules: Sequence[Rule]) -> None:
        """Account one executed transition, read after the stepper applied
        it: its node-sorted movers and their rules, as `Activity.transition`
        returns them."""
        activity, top_since = self._activity, self._top_since
        s, i = activity.s, activity.transitions
        fresh = frozenset(u for u in nodes if s[u] and top_since[u] is None)
        candidates = frozenset(u for u, rule in zip(nodes, rules)
                               if rule is _CANDIDACY)
        if fresh != candidates:
            raise InvariantViolation(
                f"transition {i}: fresh-up set {sorted(fresh)} does not match "
                f"candidacy movers {sorted(candidates)}")
        if fresh:
            if not is_candidate_set(activity.g, activity, fresh):
                raise InvariantViolation(
                    f"transition {i}: fresh-up set {sorted(fresh)} is not a "
                    "candidate set")
            self.records[i] = self._live[i] = ColorRecord(i, fresh)

        colors = []
        for node, rule in zip(nodes, rules):
            if rule is _CANDIDACY:
                color = i
            elif rule is _WITHDRAW:
                color = top_since[node]
                if color is None:
                    raise InvariantViolation(
                        f"transition {i}: withdrawal on node {node} that was "
                        "not up")
                record = self.records.get(color)
                if record is None or node not in record.members:
                    raise InvariantViolation(
                        f"transition {i}: move on node {node} resolved to "
                        f"color {color} it does not belong to")
                record.withdrawal_moves += 1
            else:
                raise InvariantViolation(
                    f"transition {i}: rule {rule.value} has no color")
            colors.append(color)
        self.move_colors.append(tuple(colors))

        for u in nodes:
            if not s[u]:
                top_since[u] = None
            elif top_since[u] is None:
                top_since[u] = i
        self._scan_possible_moves()

    def _scan_possible_moves(self) -> None:
        """Recompute which colors still have possible withdrawal moves, then
        settle the accounts of colors that just lost their last one."""
        activity, top_since, live = self._activity, self._top_since, self._live
        activable, i = activity.activable, activity.transitions
        possible = {top_since[u] for u, rule in activable.items()
                    if rule is _WITHDRAW}
        if not possible.issubset(live):
            # name the lowest node whose possible withdrawal has no live color
            u = min(u for u, rule in activable.items()
                    if rule is _WITHDRAW and top_since[u] not in live)
            color = top_since[u]
            record = self.records.get(color)
            if record is None:
                raise InvariantViolation(
                    f"index {i}: possible withdrawal on node {u} has no "
                    f"color record for {color}")
            raise InvariantViolation(
                f"index {i}: color {color} died at {record.died} but "
                f"node {u} can still move with it")
        up = activity.up
        for color in [c for c in live if c not in possible]:
            record = live.pop(color)
            record.died = i
            record.success = any(top_since[u] == color and not up[u]
                                 for u in record.members)

    def all_dead(self) -> bool:
        return not self._live

    def report_rows(self) -> list[tuple]:
        return [(color, r.size, color, r.died, r.withdrawal_moves, r.success)
                for color, r in sorted(self.records.items())]


def write_ledger_csv(ledgers: Iterable[ColorLedger], fh: IO[str]) -> None:
    """One header, then every ledger's rows in order."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(
        ("color", "size", "born", "died", "withdrawal_moves", "success"))
    for ledger in ledgers:
        writer.writerows(ledger.report_rows())
