"""Dominating-set solvers on domination digraphs.

Three solvers with different contracts:

* greedy max-out-degree on a complete digraph built from componentwise
  rankings (per-cell selection; cardinality at most ceil(log2 n) + 1),
* greedy set cover on an arbitrary self-looped digraph (factor 1 + ln n),
* exact branch-and-bound minimum (test oracle and the `min` command),
  guarded by a node limit.

All three run one greedy core on the digraph's rows, closed out-neighborhood
bitmasks (a member covers itself even where a hand-built row lacks its bit).
All tie-breaking follows the node order, so equal inputs give equal outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .dominance import DominationDigraph, _ids
from .model import Solution

__all__ = [
    "NodeLimitExceeded",
    "TournamentView",
    "tournament_view",
    "greedy_tournament_dominating_set",
    "greedy_cover_dominating_set",
    "exact_min_dominating_set",
    "is_dominating",
]

DEFAULT_NODE_LIMIT = 25


class NodeLimitExceeded(RuntimeError):
    """The exact solver was asked for more nodes than its configured guard."""


@dataclass(frozen=True)
class TournamentView:
    """Complete digraph on points from k-of-p majority over per-objective ranks.

    For each objective, points are ranked by ascending value with ties broken
    by list position; there is an arc u -> v iff u outranks v in at least k of
    the p orders.  With 2k - 1 <= p every pair gets an arc in at least one
    direction, so the digraph is complete.
    """

    points: tuple[Solution, ...]
    k: int
    rows: tuple[int, ...]  # as in DominationDigraph; `out` omits the self-loop

    @property
    def out(self) -> dict[str, frozenset[str]]:
        ids = [sol.id for sol in self.points]
        return {u: _ids(ids, row & ~(1 << i)) for i, (u, row) in enumerate(zip(ids, self.rows))}


def tournament_view(points: Sequence[Solution], k: int) -> TournamentView:
    if not points:
        raise ValueError("tournament needs at least one point")
    p = len(points[0].f)
    if 2 * k - 1 > p:
        raise ValueError(f"majority threshold k={k} needs 2k-1 <= p, got p={p}")
    rows = []
    for i, a in enumerate(points):
        row = 1 << i  # a never outranks itself, so only k = 0 would set this bit again
        for j, b in enumerate(points):
            if sum(1 for t in range(p) if (a.f[t], i) < (b.f[t], j)) >= k:
                row |= 1 << j
        rows.append(row)
    return TournamentView(points=tuple(points), k=k, rows=tuple(rows))


def _greedy_cover_indices(cover: Sequence[int]) -> list[int]:
    """Greedy max-coverage over closed rows (each round gains); ties to the lowest index."""
    full = (1 << len(cover)) - 1
    chosen: list[int] = []
    covered = 0
    while covered != full:
        best_i, best_gain = -1, 0
        for i, mask in enumerate(cover):
            gain = (mask & ~covered).bit_count()
            if gain > best_gain:
                best_i, best_gain = i, gain
        chosen.append(best_i)
        covered |= cover[best_i]
    return chosen


def greedy_tournament_dominating_set(view: TournamentView) -> set[str]:
    """Greedy maximum out-degree on the complete majority digraph.

    Each pick's closed out-neighborhood covers at least half of what remains,
    so the result has at most ceil(log2 n) + 1 members.
    """
    return {view.points[i].id for i in _greedy_cover_indices(_closed(view.rows))}


def _closed(rows: Sequence[int]) -> list[int]:
    """The rows with each node's own bit set: a member covers itself."""
    return [row | 1 << i for i, row in enumerate(rows)]


def greedy_cover_dominating_set(graph: DominationDigraph) -> set[str]:
    """Greedy set cover, ties to the earliest node: at most (1 + ln n) times the minimum."""
    return {graph.nodes[i] for i in _greedy_cover_indices(_closed(graph.rows))}


def exact_min_dominating_set(
    graph: DominationDigraph, node_limit: int = DEFAULT_NODE_LIMIT
) -> set[str]:
    """A true minimum dominating set via branch-and-bound on set cover.

    Branches on the uncovered node with the fewest potential coverers; prunes
    with ceil(remaining / best-single-node-coverage).  Candidate order follows
    the node order, so the result is deterministic.  Refuses graphs larger
    than node_limit.
    """
    n = len(graph.nodes)
    if n == 0:
        return set()
    if n > node_limit:
        raise NodeLimitExceeded(f"{n} nodes exceeds the exact-solver limit {node_limit}")
    cover = _closed(graph.rows)
    best = _greedy_cover_indices(cover)

    def descend(uncovered: int, chosen: list[int]) -> None:
        nonlocal best
        if uncovered == 0:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        need = uncovered.bit_count()
        biggest = max((mask & uncovered).bit_count() for mask in cover)
        if len(chosen) + -(-need // biggest) >= len(best):
            return
        uncovered_nodes = [j for j in range(n) if uncovered >> j & 1]
        coverers = ([i for i in range(n) if cover[i] >> j & 1] for j in uncovered_nodes)
        for i in min(coverers, key=len):  # the first uncovered node with the fewest
            chosen.append(i)
            descend(uncovered & ~cover[i], chosen)
            chosen.pop()

    descend((1 << n) - 1, [])
    return {graph.nodes[i] for i in best}


def is_dominating(graph: DominationDigraph, members: set[str]) -> bool:
    """Every node is a member or the target of an arc from a member."""
    covered = 0
    for u, row in zip(graph.nodes, _closed(graph.rows)):
        if u in members:
            covered |= row
    return covered == (1 << len(graph.nodes)) - 1
