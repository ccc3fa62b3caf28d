"""Approximate-dominance relations, Pareto filtering, and the domination digraph.

All relations here are monotonic: componentwise "at least as good" always
implies relation membership, so in particular every relation is reflexive.
The efficient filters, the weakly-efficient lift, the grid's cell filter
(on cell coordinates) and the gap construction's prune (on the oracle's
Fraction images) are one front, `_front`: at p <= 3 a sort-and-sweep (Kung,
Luccio and Preparata 1975) over a staircase of minimal rows, one sort then one
`bisect` per row; at p >= 4, once copied columns are dropped, one sort then a
pass over blocks of `_FRONT_BLOCK` ranks, each a sorted column and its prefix
bitsets per coordinate after the first: (p - 1) bisects per row and block.
The digraph is stored as one n-bit row per node, the AND of masks from the
sorted-column index (`model._SortedColumn`).  The filters, the lift and the
digraph compare the instance's cached integer image (a column past
`model._SCALE_BITS` keeps its Fractions); the pairwise `values_r_dominate`, on
Fractions, is their reference.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import lt, neg
from typing import Sequence

from .model import Instance, RelationSpec, Solution, _tuple

__all__ = [
    "r_dominates",
    "values_r_dominate",
    "exact_components",
    "efficient_set",
    "weakly_efficient_set",
    "DominationDigraph",
    "domination_digraph",
]


def _check_dims(fx: Sequence[Fraction], fy: Sequence[Fraction]) -> None:
    if len(fx) != len(fy):
        raise ValueError(f"dimension mismatch: {len(fx)} vs {len(fy)}")


def values_r_dominate(
    fx: Sequence[Fraction], fy: Sequence[Fraction], spec: RelationSpec
) -> bool:
    """Does the vector fx approximately dominate fy under the given relation?

    The relation's exactness rule (`RelationSpec.exact_rule`, one table in
    `model` for all five kinds) names the components that must be exact and
    the minimum number of exact components; every component must be within
    1 + eps.  "Exact" means fx[i] <= fy[i]; "within 1 + eps" means
    fx[i] <= (1+eps)*fy[i].  quasi-k uses the counting criterion, which is
    equivalent to asking for an exact k-subset of components because any k
    exact components can serve.  Values are positive, so exact implies within.
    """
    _check_dims(fx, fy)
    required, min_exact = spec.exact_rule(len(fx))
    for i in required:
        if fx[i] > fy[i]:
            return False
    slack = 1 + spec.eps
    if not all(a <= b or a <= slack * b for a, b in zip(fx, fy)):  # exact needs no product
        return False
    return min_exact == 0 or sum(1 for a, b in zip(fx, fy) if a <= b) >= min_exact


def r_dominates(x: Solution, y: Solution, spec: RelationSpec) -> bool:
    return values_r_dominate(x.f, y.f, spec)


def exact_components(x: Solution, y: Solution) -> tuple[int, ...]:
    """1-based objective indices in which x is at least as good as y."""
    _check_dims(x.f, y.f)
    return tuple(i + 1 for i, (a, b) in enumerate(zip(x.f, y.f)) if a <= b)


def _strictly_below(y: tuple, x: tuple) -> bool:
    """Is y strictly below x in every coordinate?"""
    return all(map(lt, y, x))


_FRONT_BLOCK = 4096  # ranks per block of the p >= 4 pass: about 1 MB of prefix masks a column


def _front(rows: Sequence[tuple], strict: bool) -> list[int]:
    """Positions, in a stable lexicographic sort of the rows, of the rows that no other
    row is strictly below (`strict`) or at most and distinct from: the Pareto front.

    Image twins take the first twin's verdict.  At p <= 3 a sweep (Kung, Luccio and
    Preparata): rows in that order meet a staircase of the minimal (f2, f3) pairs so
    far, f2 ascending in `f2s` and f3 descending in `f3s` (a row of p < 3 repeats its
    last coordinate).  One `bisect` tests a row; a kept one enters by one slice
    assignment that drops the pairs it is at most; under `strict`, rows tied in f1 are
    all tested before any enters.  At p >= 4 a column equal to an earlier one changes no
    order and no verdict, so it is dropped first (a lift by copied columns takes the
    sweep); then `_beaten` decides each rank against the ranks below it.
    """
    if rows and len(rows[0]) > 3:
        columns = dict.fromkeys(zip(*rows))  # a copy of an earlier column ties whenever it does
        if len(columns) < len(rows[0]):
            rows = list(zip(*columns))
    order = sorted(range(len(rows)), key=rows.__getitem__)
    if rows and len(rows[0]) > 3:
        return [i for i, out in zip(order, _beaten([rows[i] for i in order], strict)) if not out]
    front: list[int] = []
    f2s: list = []
    f3s: list = []
    waiting: list = []  # kept pairs not yet entered: one row's, or under `strict` one f1's
    last: tuple = (None,)
    for i in order:
        x = rows[i]
        if x != last:
            if not strict or x[0] != last[0]:
                for b, c in waiting:
                    k = bisect_right(f2s, b)
                    if not k or f3s[k - 1] > c:  # no pair is at most (b, c): it enters
                        j = bisect_left(f2s, b, 0, k)
                        end = bisect_right(f3s, -c, j, key=neg)
                        f2s[j:end], f3s[j:end] = [b], [c]
                waiting = []
            last, b, c = x, x[min(len(x), 2) - 1], x[-1]
            k = (bisect_left if strict else bisect_right)(f2s, b)
            kept = not k or (f3s[k - 1] >= c if strict else f3s[k - 1] > c)
            if kept:
                waiting.append((b, c))
        if kept:
            front.append(i)
    return front


def _beaten(ranked: list[tuple], strict: bool) -> bytearray:
    """Flags, by rank in the sorted `ranked`, of the rows that a row is strictly below
    (`strict`) or at most and distinct from.

    Only ranks below `bound[r]` (the first with r's f1 under `strict`, else r's first
    twin) can beat rank r, and they are at most r in f1, so the other columns decide.
    Per block of `_FRONT_BLOCK` ranks and column after the first, the index holds the
    sorted values of the block's rows not yet beaten and the prefix masks of their
    bits; a row is beaten if the mask of the ranks below its bound survives the AND
    with the mask at one `bisect` per column.  A row whose bound is at or below a
    block's start is decided: at most (p - 1) * n * ceil(n / _FRONT_BLOCK) bisects.
    """
    bound, first = [], 0
    for r, x in enumerate(ranked):
        if (x[0] != ranked[first][0]) if strict else (x != ranked[first]):
            first = r
        bound.append(first)
    side = bisect_left if strict else bisect_right
    columns = list(zip(*ranked))[1:]
    beaten = bytearray(len(ranked))
    alive = [r for r, b in enumerate(bound) if b]  # the first rank's group has none below
    for start in range(0, len(ranked), _FRONT_BLOCK):
        if not alive:
            break
        stop = min(start + _FRONT_BLOCK, len(ranked))
        # a beaten row beats nothing that its own beater does not
        unbeaten = [r for r in range(start, stop) if not beaten[r]]
        index = []
        for column in columns:
            masks, mask = [0], 0
            for r in sorted(unbeaten, key=column.__getitem__):
                mask |= 1 << (r - start)
                masks.append(mask)
            index.append((column, sorted(column[r] for r in unbeaten), masks))
        full, survivors = (1 << (stop - start)) - 1, []
        for r in alive:
            mask = full if bound[r] >= stop else (1 << (bound[r] - start)) - 1
            for column, values, masks in index:
                mask &= masks[side(values, column[r])]
                if not mask:
                    break
            if mask:
                beaten[r] = 1
            elif bound[r] > stop:
                survivors.append(r)
        alive = survivors
    return beaten


def efficient_set(instance: Instance) -> set[str]:
    """Ids of solutions not dominated by any other solution.

    Dominance is computed on images, so a solution tied with another on all
    components is not dominated by it (one strict inequality is required).
    """
    ids = instance.ids
    return {ids[i] for i in _front(instance._rows, strict=False)}


def weakly_efficient_set(instance: Instance) -> set[str]:
    """Ids of solutions not strictly dominated by any other solution."""
    ids = instance.ids
    return {ids[i] for i in _front(instance._rows, strict=True)}


@dataclass(frozen=True)
class DominationDigraph:
    """Directed graph on solution ids: an arc (u, v) means u R-dominates v.

    Row i is the closed out-neighborhood of nodes[i] as a bitmask, bit k
    standing for nodes[k].  Construction sets each node's own bit (a member
    covers itself); a row that has it, as every built row does because the
    relations are reflexive, is kept as given.
    """

    nodes: tuple[str, ...]
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(_tuple(self.nodes, "nodes"))
        if len(self.rows) != n or any(r >> n for r in self.rows):
            raise ValueError("a digraph needs one row per node, with bits for its nodes only")
        closed = tuple(r if r >> i & 1 else r | 1 << i for i, r in enumerate(self.rows))
        object.__setattr__(self, "rows", closed)

    def arc_count(self) -> int:
        return sum(row.bit_count() for row in self.rows)


def domination_digraph(instance: Instance, spec: RelationSpec) -> DominationDigraph:
    """The digraph of `spec`, one n-bit row per x from the sorted-column index.

    Bit k of x's row is set iff values_r_dominate(x.f, y.f, spec) for y = nodes[k]:
    y_j >= x_j/(1+eps) for every j, and y_j >= x_j on the rule's components (bit-sliced count).
    On the integer image, with eps = num/den, y_j >= x_j/(1+eps) iff y_j >= ceil(den*x_j/(den+num)).
    """
    nodes = instance.ids
    required, min_exact = spec.exact_rule(instance.p) if nodes else ((), 0)
    columns = instance._sorted_columns
    num, den = spec.eps.numerator, spec.eps.denominator
    slack = 1 + spec.eps
    rows = []
    for x in instance._rows:
        mask = -1
        for j, (column, v) in enumerate(zip(columns, x)):  # exact implies within
            if j not in required:
                v = v / slack if column.scale is None else -(-den * v // (den + num))
            mask &= column.at_least(v)
        if min_exact:
            mask &= _in_at_least([c.at_least(v) for c, v in zip(columns, x)], min_exact)
        rows.append(mask)
    return DominationDigraph(nodes=nodes, rows=tuple(rows))


def _in_at_least(masks: Sequence[int], k: int) -> int:
    """The bits set in at least k of the masks (-1, every bit, at k = 0): the one "at least
    k of p" count, of the digraph's exact components and of `tournament_view`'s wins."""
    count = [-1] + [0] * k  # count[c]: bits set in >= c masks so far
    for mask in masks:
        for c in range(k, 0, -1):
            count[c] |= count[c - 1] & mask
    return count[k]
