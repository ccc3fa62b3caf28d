"""Geometric bucketing of objective vectors with exact cell placement.

Each dimension is subdivided at powers of 1 + eps above a per-dimension
anchor, so any two solutions sharing a cell approximate each other within a
factor strictly below 1 + eps in every component.  Anchors are the
per-dimension instance minima rather than the global value-range floor:
identical correctness, far fewer cells.

`bucket` walks each column's sorted values up the rungs anchor * (1+eps)**t;
boundary values always land in the upper cell.  Its far jumps, `cell_coord`
and `ratio_steps_to_reach` count rungs with one helper, `_rungs`.  It walks
the instance's integer image, whose per-column scale divides out of every
value-to-anchor ratio; `lower` reports the Fraction anchors.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .dominance import _front
from .model import Instance
from .numerics import _positive

__all__ = [
    "CellIndex",
    "GridBucketing",
    "cell_coord",
    "bucket",
    "filter_weakly_nondominated_cells",
    "diagonal_of",
    "ratio_steps_to_reach",
]

CellIndex = tuple[int, ...]


@dataclass(frozen=True)
class GridBucketing:
    """A partition of solution ids into grid cells keyed by coordinate tuples."""

    eps: Fraction
    lower: tuple[Fraction, ...]
    cells: Mapping[CellIndex, tuple[str, ...]]


def _rungs(q: int | Fraction, ratio: Fraction, side) -> int:
    """How many t >= 0 have ratio**t <= q (side `bisect_right`) or < q (`bisect_left`):
    probe ratio**1, **2, **4, ... past q, then `bisect` the last doubling, every power exact."""
    hi = 1
    while side((ratio**hi,), q):  # ratio**hi still counts
        hi *= 2
    return hi // 2 + side(range(hi // 2, hi), q, key=ratio.__pow__)


def cell_coord(value: Fraction, anchor: Fraction, eps: Fraction) -> int:
    """Maximal integer t with anchor * (1+eps)**t <= value, computed exactly: no
    floating-point log decides, so a value on a cell boundary goes up."""
    _positive(anchor, "anchor")
    _positive(eps, "eps")
    if _positive(value, "value") < anchor:
        raise ValueError(f"value {value} below anchor {anchor}")
    return _rungs(Fraction(value, anchor), 1 + eps, bisect_right) - 1


def _rung_walk(column: Sequence[int | Fraction], anchor: int | Fraction, eps: Fraction) -> dict:
    """cell_coord(v, anchor, eps) for every distinct v of one column, in one walk."""
    num, den = (1 + eps).as_integer_ratio()
    rung_num, rung_den = anchor.as_integer_ratio()  # anchor * (1+eps)**t, unreduced
    t, coords = 0, {}
    for v in sorted(set(column)):
        a, b = v.as_integer_ratio()
        while b * rung_num * num <= a * rung_den * den:  # v reaches the next rung
            # num.bit_length() + 2 bits of v/rung put q at most one rung below it
            shift = max(0, (b * rung_num).bit_length() - num.bit_length() - 2)
            q = Fraction(a * rung_den >> shift, -(-b * rung_num >> shift))
            s = max(1, _rungs(q, 1 + eps, bisect_right) - 1)
            t, rung_num, rung_den = t + s, rung_num * num**s, rung_den * den**s
        coords[v] = t
    return coords


def bucket(instance: Instance, eps: Fraction) -> GridBucketing:
    """Assign every solution to its grid cell; anchors are per-dimension minima
    (an empty instance has no anchors and no cells)."""
    _positive(eps, "eps")
    image = instance._image
    lows = [min(values) for _, values in image]
    coords = [_rung_walk(values, low, eps) for (_, values), low in zip(image, lows)]
    cells: dict[CellIndex, list[str]] = {}
    for sol_id, row in zip(instance.ids, instance._rows):
        cells.setdefault(tuple(map(dict.__getitem__, coords, row)), []).append(sol_id)
    anchors = tuple(low if s is None else Fraction(low, s) for (s, _), low in zip(image, lows))
    return GridBucketing(
        eps=eps, lower=anchors, cells={c: tuple(ids) for c, ids in cells.items()}
    )


def filter_weakly_nondominated_cells(bucketing: GridBucketing) -> set[CellIndex]:
    """Keep a nonempty cell unless another nonempty cell is strictly below it
    in every coordinate (in which case that cell's points cover it under any
    monotonic relation): the weakly efficient front over the cell coordinates."""
    cells = list(bucketing.cells)
    return {cells[i] for i in _front(cells, strict=True)}


def diagonal_of(cell: CellIndex) -> CellIndex:
    """Canonical key of the diagonal through a cell.

    Two cells share a key iff they differ by a multiple of the all-ones
    vector; the key is the cell shifted so its minimum coordinate is zero.
    """
    low = min(cell)
    return tuple(c - low for c in cell)


def ratio_steps_to_reach(target: Fraction, eps: Fraction) -> int:
    """Smallest t >= 0 with (1+eps)**t >= target."""
    _positive(target, "target")
    _positive(eps, "eps")
    return _rungs(target, 1 + eps, bisect_left)
