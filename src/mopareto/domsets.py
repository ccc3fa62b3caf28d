"""Dominating-set solvers on `DominationDigraph` rows, closed out-neighborhood bitmasks.

* greedy set cover: at most (1 + ln n) times the minimum, and at most
  ceil(log2 n) + 1 members on the complete majority digraph that
  `tournament_view` builds for per-cell selection,
* exact branch-and-bound minimum (test oracle and the `min` command),
  guarded by a node limit.

Both run one greedy core.  All tie-breaking follows the node order, so equal
inputs give equal outputs.
"""

from __future__ import annotations

from typing import Sequence

from .dominance import DominationDigraph, _in_at_least
from .model import Solution
from .numerics import _integer

__all__ = [
    "NodeLimitExceeded",
    "tournament_view",
    "greedy_tournament_dominating_set",
    "greedy_cover_dominating_set",
    "exact_min_dominating_set",
]

DEFAULT_NODE_LIMIT = 25


class NodeLimitExceeded(RuntimeError):
    """The exact solver was asked for more nodes than its configured guard."""


def tournament_view(points: Sequence[Solution], k: int) -> DominationDigraph:
    """The majority digraph: u -> v iff u outranks v in at least k of the p objectives.

    Ranks (stable sorts) ascend by value, ties to list position; 2k - 1 <= p makes it complete.
    """
    if not points:
        raise ValueError("tournament needs at least one point")
    p = len(points[0].f)
    if 2 * _integer(k, "k") - 1 > p:
        raise ValueError(f"majority threshold k={k} needs 2k-1 <= p, got p={p}")
    wins = []  # wins[t][i]: the points after points[i] in objective t's order
    for column in zip(*(sol.f for sol in points)):
        beaten, masks = 0, [0] * len(points)
        for i in sorted(range(len(points)), key=column.__getitem__)[::-1]:
            masks[i] = beaten
            beaten |= 1 << i
        wins.append(masks)
    full = (1 << len(points)) - 1  # at k = 0 the count sets every bit, not just the points'
    rows = tuple(_in_at_least(w, k) & full for w in zip(*wins))
    return DominationDigraph(nodes=tuple(sol.id for sol in points), rows=rows)


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


def greedy_cover_dominating_set(graph: DominationDigraph) -> set[str]:
    """Greedy set cover, ties to the earliest node: at most (1 + ln n) times the minimum."""
    return {graph.nodes[i] for i in _greedy_cover_indices(graph.rows)}


# on a complete majority digraph each pick covers at least half of the rest: <= ceil(log2 n) + 1
greedy_tournament_dominating_set = greedy_cover_dominating_set


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
    if n > _integer(node_limit, "node_limit"):
        raise NodeLimitExceeded(f"{n} nodes exceeds the exact-solver limit {node_limit}")
    cover = graph.rows
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
