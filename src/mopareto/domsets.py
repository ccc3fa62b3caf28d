"""Dominating-set solvers on domination digraphs.

Three solvers with different contracts:

* greedy max-out-degree on a complete digraph built from componentwise
  rankings (per-cell selection; cardinality at most ceil(log2 n) + 1),
* greedy set cover on an arbitrary self-looped digraph (factor 1 + ln n),
* exact branch-and-bound minimum (test oracle and the `min` command),
  guarded by a node limit.

Both greedy solvers build closed out-neighborhood bitmasks with one helper
and run one greedy core.  All tie-breaking follows the node order handed in,
so identical inputs produce identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .dominance import DominationDigraph
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
    out: Mapping[str, frozenset[str]]  # arc targets, self excluded


def tournament_view(points: Sequence[Solution], k: int) -> TournamentView:
    if not points:
        raise ValueError("tournament needs at least one point")
    p = len(points[0].f)
    if 2 * k - 1 > p:
        raise ValueError(f"majority threshold k={k} needs 2k-1 <= p, got p={p}")
    pos = {sol.id: i for i, sol in enumerate(points)}
    out: dict[str, set[str]] = {sol.id: set() for sol in points}
    for a in points:
        for b in points:
            if a.id == b.id:
                continue
            wins = sum(
                1
                for j in range(p)
                if (a.f[j], pos[a.id]) < (b.f[j], pos[b.id])
            )
            if wins >= k:
                out[a.id].add(b.id)
    return TournamentView(
        points=tuple(points), k=k, out={u: frozenset(vs) for u, vs in out.items()}
    )


def _greedy_cover_indices(cover: Sequence[int], full: int) -> list[int]:
    """Greedy max-coverage over bitmask sets; ties go to the lowest index."""
    chosen: list[int] = []
    covered = 0
    while covered != full:
        best_i, best_gain = -1, 0
        for i, mask in enumerate(cover):
            gain = (mask & ~covered).bit_count()
            if gain > best_gain:
                best_i, best_gain = i, gain
        if best_i < 0:
            raise ValueError("uncoverable nodes: digraph is missing self-loops")
        chosen.append(best_i)
        covered |= cover[best_i]
    return chosen


def greedy_tournament_dominating_set(view: TournamentView) -> set[str]:
    """Greedy maximum out-degree on the complete majority digraph.

    Each pick's closed out-neighborhood covers at least half of what remains,
    so the result has at most ceil(log2 n) + 1 members.
    """
    ids = [sol.id for sol in view.points]
    full = (1 << len(ids)) - 1
    return {ids[i] for i in _greedy_cover_indices(_closed_masks(ids, view.out), full)}


def _closed_masks(nodes: Sequence[str], out: Mapping[str, Iterable[str]]) -> list[int]:
    """Bitmask of each node's closed out-neighborhood, one bit per node in order."""
    index = {u: i for i, u in enumerate(nodes)}
    cover = []
    for u in nodes:
        mask = 1 << index[u]
        for v in out[u]:
            mask |= 1 << index[v]
        cover.append(mask)
    return cover


def greedy_cover_dominating_set(graph: DominationDigraph) -> set[str]:
    """Greedy set cover: repeatedly take the node covering the most uncovered
    nodes (ties to the earliest node).  At most (1 + ln n) times the minimum."""
    ids = graph.nodes
    full = (1 << len(ids)) - 1
    return {ids[i] for i in _greedy_cover_indices(_closed_masks(ids, graph.out), full)}


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
    ids = graph.nodes
    cover = _closed_masks(ids, graph.out)
    full = (1 << n) - 1

    best = _greedy_cover_indices(cover, full)

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
        branch_j, branch_cands = -1, None
        for j in range(n):
            if uncovered >> j & 1:
                cands = [i for i in range(n) if cover[i] >> j & 1]
                if branch_cands is None or len(cands) < len(branch_cands):
                    branch_j, branch_cands = j, cands
        assert branch_cands is not None
        for i in branch_cands:
            chosen.append(i)
            descend(uncovered & ~cover[i], chosen)
            chosen.pop()

    descend(full, [])
    return {ids[i] for i in best}


def is_dominating(graph: DominationDigraph, members: set[str]) -> bool:
    """Every node is a member or the target of an arc from a member."""
    covered: set[str] = set()
    for m in members:
        covered.add(m)
        covered.update(graph.out[m])
    return covered >= set(graph.nodes)
