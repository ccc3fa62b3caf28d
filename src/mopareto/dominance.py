"""Approximate-dominance relations, Pareto filtering, and the domination digraph.

All relations here are monotonic: componentwise "at least as good" always
implies relation membership, so in particular every relation is reflexive.
The efficient filters, the weakly-efficient lift, the grid's cell filter
(on cell coordinates) and the gap construction's prune (on the oracle's
Fraction images) are one front, `_front`: at p <= 3 a sort-and-sweep (Kung,
Luccio and Preparata 1975) over a staircase of minimal rows, one sort then one
`bisect` per row; at p >= 4, once copied columns are dropped, a presorted
skyline (Chomicki et al. 2003) that tests each row against the minimal rows
only, n * |minimal| tests.  The digraph is stored as one n-bit row per node,
the AND of masks from the sorted-column index (`model._SortedColumn`).  The
filters, the lift and the digraph compare the instance's cached integer image
(a column past `model._SCALE_BITS` keeps its Fractions); the pairwise
`values_r_dominate`, on Fractions, is their reference.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import le, lt, neg
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


def _weakly_below(y: tuple, x: tuple) -> bool:
    """Is y at most x in every coordinate?"""
    return all(map(le, y, x))


def _strictly_below(y: tuple, x: tuple) -> bool:
    """Is y strictly below x in every coordinate?"""
    return all(map(lt, y, x))


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
    sweep); then a presorted skyline: a row that no minimal row so far is at most is
    kept and is minimal at once; another is kept only under `strict`, when no minimal
    row is strictly below it.  Every earlier row has a minimal row at most it, so the
    minimal rows answer for all: at most n * |minimal| tests of each of `_weakly_below`
    and `_strictly_below`.
    """
    if rows and len(rows[0]) > 3:
        columns = dict.fromkeys(zip(*rows))  # a copy of an earlier column ties whenever it does
        if len(columns) < len(rows[0]):
            rows = list(zip(*columns))
    wide = bool(rows) and len(rows[0]) > 3
    minimal: list[tuple] = []
    front: list[int] = []
    f2s: list = []
    f3s: list = []
    waiting: list = []  # kept pairs not yet entered: one row's, or under `strict` one f1's
    last: tuple = (None,)
    for i in sorted(range(len(rows)), key=rows.__getitem__):
        x = rows[i]
        if wide and x != last:
            last = x
            kept = not any(map(_weakly_below, minimal, repeat(x)))
            if kept:
                minimal.append(x)
            elif strict:
                kept = not any(map(_strictly_below, minimal, repeat(x)))
        elif x != last:
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
