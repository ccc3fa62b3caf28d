import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mopareto import model
from mopareto.dominance import values_r_dominate
from mopareto.generators import gen_random
from mopareto.grid import (
    GridBucketing,
    bucket,
    cell_coord,
    diagonal_of,
    filter_weakly_nondominated_cells,
    ratio_steps_to_reach,
)
from mopareto.model import (
    Instance,
    RelationKind,
    RelationSpec,
    Solution,
    derive_value_bound,
)
from mopareto.numerics import _positive


def inst(*vectors):
    return Instance(
        p=len(vectors[0]),
        solutions=tuple(
            Solution(f"s{i}", tuple(Fraction(v) for v in vec))
            for i, vec in enumerate(vectors, start=1)
        ),
    )


# The per-value bucketing and the pairwise cell filter, kept as references
# for the presorted implementations.
def reference_bucket(instance: Instance, eps: Fraction) -> GridBucketing:
    """Assign every solution to its grid cell; anchors are per-dimension minima."""
    if not instance.solutions:
        raise ValueError("cannot bucket an empty instance")
    anchors = tuple(
        min(sol.f[i] for sol in instance.solutions) for i in range(instance.p)
    )
    cells: dict[tuple[int, ...], list[str]] = {}
    for sol in instance.solutions:
        coords = tuple(
            reference_cell_coord(sol.f[i], anchors[i], eps) for i in range(instance.p)
        )
        cells.setdefault(coords, []).append(sol.id)
    return GridBucketing(
        eps=eps, lower=anchors, cells={c: tuple(ids) for c, ids in cells.items()}
    )


def reference_filter(bucketing: GridBucketing) -> set[tuple[int, ...]]:
    cells = list(bucketing.cells)
    return {
        c
        for c in cells
        if not any(
            all(d_i < c_i for d_i, c_i in zip(d, c)) for d in cells if d != c
        )
    }


# The hand-written probe-and-bisection and its equality fix-up, kept as references
# for the one rung count that cell_coord, ratio_steps_to_reach and the walk share.
def reference_cell_coord(value: Fraction, anchor: Fraction, eps: Fraction) -> int:
    """Maximal integer t with anchor * (1+eps)**t <= value, computed exactly.

    Exponential probing followed by binary search; no floating-point log is
    ever the final authority, so values sitting exactly on a cell boundary are
    placed deterministically (they go up).
    """
    _positive(anchor, "anchor")
    _positive(eps, "eps")
    if value < anchor:
        raise ValueError(f"value {value} below anchor {anchor}")
    ratio = 1 + eps
    if anchor * ratio > value:
        return 0
    lo, hi = 1, 2
    while anchor * ratio**hi <= value:
        lo, hi = hi, hi * 2
    # invariant: anchor * ratio**lo <= value < anchor * ratio**hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if anchor * ratio**mid <= value:
            lo = mid
        else:
            hi = mid
    return lo


def reference_ratio_steps_to_reach(target: Fraction, eps: Fraction) -> int:
    """Smallest t >= 0 with (1+eps)**t >= target (target >= 1 assumed useful)."""
    _positive(eps, "eps")
    if target <= 1:
        return 0
    t = reference_cell_coord(target, Fraction(1), eps)
    return t if (1 + eps) ** t == target else t + 1


def exact(draw, x: Fraction) -> int | Fraction:
    """x, drawn as an int when it is whole and the draw says so."""
    return int(x) if x.denominator == 1 and draw(st.booleans()) else x


@st.composite
def rung_cases(draw):
    """(value, anchor, eps): eps from 50 down to 1/10**4, and a value exactly on a rung
    of the anchor, one unit below one (in the anchor's and the rung's denominators),
    or far above the anchor, off the rungs."""
    eps = Fraction(draw(st.integers(1, 50)), draw(st.sampled_from([1, 2, 3, 7, 100, 10**4])))
    anchor = Fraction(draw(st.integers(1, 1000)), draw(st.sampled_from([1, 1, 2, 9, 1024])))
    rung = anchor * (1 + eps) ** draw(st.integers(0, 60))
    kind = draw(st.sampled_from(["on", "below", "far"]))
    if kind == "on":
        value = rung
    elif kind == "below":  # above the anchor, by a multiple of this unit, unless t = 0
        value = max(anchor, rung - Fraction(1, rung.denominator * anchor.denominator))
    else:  # at most about 7000 rungs above it at eps = 1/10**4
        top = 10**6 if eps >= Fraction(1, 100) else 2
        value = rung * Fraction(draw(st.integers(7, 7 * top)), 7) + Fraction(1, 3)
    return exact(draw, value), exact(draw, anchor), exact(draw, eps)


@st.composite
def grid_inputs(draw):
    """An instance whose columns mix values exactly on rungs of their minimum,
    repeated values, and arbitrary distinct values, with the eps to bucket it."""
    p = draw(st.integers(min_value=1, max_value=3))
    eps = draw(st.fractions(min_value=Fraction(1, 64), max_value=Fraction(4)))
    anchor_values = st.fractions(min_value=Fraction(1, 16), max_value=Fraction(16))
    columns = []
    for anchor in draw(st.lists(anchor_values, min_size=p, max_size=p)):
        on_rung = st.integers(min_value=0, max_value=20).map(
            lambda t, a=anchor: a * (1 + eps) ** t
        )
        free = st.fractions(min_value=anchor, max_value=anchor * 256)
        column = draw(st.lists(st.one_of(on_rung, free), min_size=1, max_size=30))
        columns.append([anchor] + column)
    n = max(len(column) for column in columns)
    rows = [tuple(column[i % len(column)] for column in columns) for i in range(n)]
    return Instance(p, tuple(Solution(f"s{i}", row) for i, row in enumerate(rows))), eps


# model._SCALE_BITS: every column falls back to Fractions (0), columns with
# large denominators do (12), or none does (None: the default)
SCALE_BITS = [0, 12, None]


def under_scale_bits(mp, scale_bits, instance):
    """The instance rebuilt with model._SCALE_BITS patched, so its image is cached under it."""
    if scale_bits is not None:
        mp.setattr(model, "_SCALE_BITS", scale_bits)
    fresh = Instance(instance.p, instance.solutions)
    if scale_bits == 0 and fresh.solutions:
        assert all(scale is None for scale, _ in fresh._image)
    return fresh


class TestRungCountMatchesTheReference:
    @settings(max_examples=500, deadline=None)
    @given(rung_cases())
    def test_cell_coord_and_ratio_steps(self, case):
        value, anchor, eps = case
        assert cell_coord(value, anchor, eps) == reference_cell_coord(value, anchor, eps)
        for target in (Fraction(value, anchor), Fraction(anchor, value)):
            target = target.numerator if target.denominator == 1 else target
            assert ratio_steps_to_reach(target, eps) == reference_ratio_steps_to_reach(target, eps)


class TestCellCoord:
    def test_powers_of_two(self):
        assert cell_coord(Fraction(8), Fraction(1), Fraction(1)) == 3

    def test_anchor_itself(self):
        assert cell_coord(Fraction(1), Fraction(1), Fraction(7, 3)) == 0

    def test_exact_power_boundary(self):
        # (3/2)^2 = 9/4 <= 5/2 < 27/8
        assert cell_coord(Fraction(5, 2), Fraction(1), Fraction(1, 2)) == 2

    def test_boundary_value_goes_up(self):
        assert cell_coord(Fraction(2), Fraction(1), Fraction(1)) == 1
        assert cell_coord(Fraction(4), Fraction(1), Fraction(1)) == 2

    def test_value_below_anchor_rejected(self):
        with pytest.raises(ValueError, match="below anchor"):
            cell_coord(Fraction(1, 2), Fraction(1), Fraction(1))

    @given(
        st.fractions(min_value=Fraction(1, 64), max_value=Fraction(64)),
        st.fractions(min_value=Fraction(1, 64), max_value=Fraction(64)),
        st.fractions(min_value=Fraction(1, 7), max_value=Fraction(4)),
    )
    def test_coord_brackets_value(self, value, anchor, eps):
        if value < anchor:
            value, anchor = anchor, value
        t = cell_coord(value, anchor, eps)
        ratio = 1 + eps
        assert anchor * ratio**t <= value < anchor * ratio ** (t + 1)


class TestBucketing:
    def test_single_solution_origin_cell(self):
        b = bucket(inst((3, 5)), Fraction(1))
        assert set(b.cells) == {(0, 0)}
        assert b.lower == (Fraction(3), Fraction(5))

    @pytest.mark.parametrize("scale_bits", SCALE_BITS)
    def test_empty_instance_has_no_anchors_and_no_cells(self, scale_bits, monkeypatch):
        for p in (1, 3):
            empty = under_scale_bits(monkeypatch, scale_bits, Instance(p=p, solutions=()))
            assert bucket(empty, Fraction(1, 2)) == GridBucketing(Fraction(1, 2), (), {})

    @pytest.mark.parametrize("eps, message", [
        (Fraction(0), "eps must be positive"),
        (-1, "eps must be positive"),
        (0.5, "eps must be an int or a Fraction, got 0.5"),
    ])
    def test_eps_is_checked_before_the_empty_instance_returns(self, eps, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            bucket(Instance(p=2, solutions=()), eps)

    def test_boundary_point_gets_upper_cell(self):
        b = bucket(inst((1, 1), (2, 2)), Fraction(1))
        assert set(b.cells) == {(0, 0), (1, 1)}

    def test_cells_partition_ids(self):
        instance = gen_random(60, 3, seed=5)
        b = bucket(instance, Fraction(1, 2))
        seen = [i for ids in b.cells.values() for i in ids]
        assert sorted(seen) == sorted(instance.ids)

    @settings(max_examples=150, deadline=None)
    @given(grid_inputs(), st.sampled_from(SCALE_BITS))
    def test_matches_per_value_reference(self, case, scale_bits):
        instance, eps = case
        with pytest.MonkeyPatch.context() as mp:
            instance = under_scale_bits(mp, scale_bits, instance)
            got, want = bucket(instance, eps), reference_bucket(instance, eps)
        assert got.lower == want.lower
        assert list(got.cells.items()) == list(want.cells.items())

    @pytest.mark.parametrize("scale_bits", SCALE_BITS)
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_all_distinct_columns_match_reference(self, p, scale_bits, monkeypatch):
        instance = under_scale_bits(monkeypatch, scale_bits, gen_random(300, p, seed=p, value_range=30))
        for eps in (Fraction(1, 64), Fraction(1, 2), Fraction(5, 3)):
            assert list(bucket(instance, eps).cells.items()) == list(
                reference_bucket(instance, eps).cells.items()
            )

    @pytest.mark.parametrize("eps", [Fraction(1, 100), Fraction(1, 2), 1, Fraction(5, 3), 2])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_integer_columns_with_ties_match_reference(self, p, eps):
        # 200 rows of ints in 1..60: every column ties, and at eps = 1 and 2 values hit rungs
        rng = random.Random(p)
        rows = [tuple(rng.randint(1, 60) for _ in range(p)) for _ in range(200)]
        instance = Instance(p, tuple(Solution(f"s{i}", row) for i, row in enumerate(rows)))
        assert list(bucket(instance, eps).cells.items()) == list(
            reference_bucket(instance, eps).cells.items()
        )

    def test_values_many_rungs_apart_jump_exactly_and_fast(self):
        # about 710 rungs between neighbouring values and 56810 in all: a
        # materialised ladder would hold gigabytes, and cell_coord on every
        # value would take seconds
        eps = Fraction(1, 1024)
        values = [Fraction(2) ** k for k in range(-40, 41)]
        instance = Instance(1, tuple(Solution(f"s{k}", (v,)) for k, v in enumerate(values)))
        start = time.perf_counter()
        b = bucket(instance, eps)
        assert time.perf_counter() - start < 1.0
        assert len(b.cells) == len(values)
        # cell_coord's definition, the maximal t with anchor * (1+eps)**t <= value,
        # checked with (1+eps)**t = rung_num / rung_den grown along the column
        num, den = (1 + eps).as_integer_ratio()
        rung_num, rung_den, last = 1, 1, 0
        for (t,), (sid,) in b.cells.items():
            ratio = values[int(sid[1:])] / values[0]
            rung_num, rung_den = rung_num * num ** (t - last), rung_den * den ** (t - last)
            last = t
            assert rung_num * ratio.denominator <= ratio.numerator * rung_den
            assert rung_num * num * ratio.denominator > ratio.numerator * rung_den * den
        # and cell_coord itself where it is cheap, on the values nearest the anchor
        for (t,), (sid,) in list(b.cells.items())[:10]:
            assert t == cell_coord(values[int(sid[1:])], values[0], eps)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3)]))
    def test_cellmates_mutually_epsilon_dominate(self, seed, eps):
        instance = gen_random(25, 3, seed=seed)
        spec = RelationSpec(RelationKind.EPSILON, eps)
        b = bucket(instance, eps)
        for ids in b.cells.values():
            for u in ids:
                for v in ids:
                    assert values_r_dominate(
                        instance.solution(u).f, instance.solution(v).f, spec
                    )


class TestCellFiltering:
    def _bucketing(self, cells):
        class Fake:
            pass

        fake = Fake()
        fake.cells = {c: ("x",) for c in cells}
        return fake

    def test_strictly_lower_cell_drops_the_upper(self):
        assert filter_weakly_nondominated_cells(self._bucketing([(0, 0), (2, 2)])) == {(0, 0)}

    def test_incomparable_cells_both_kept(self):
        kept = filter_weakly_nondominated_cells(self._bucketing([(0, 1), (1, 0)]))
        assert kept == {(0, 1), (1, 0)}

    def test_tie_in_one_coordinate_keeps_both(self):
        kept = filter_weakly_nondominated_cells(self._bucketing([(0, 0), (0, 5)]))
        assert kept == {(0, 0), (0, 5)}

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda p: st.sets(st.tuples(*[st.integers(min_value=-6, max_value=6)] * p), max_size=60)
        )
    )
    def test_matches_pairwise_reference(self, cells):
        fake = self._bucketing(cells)
        assert filter_weakly_nondominated_cells(fake) == reference_filter(fake)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_at_most_one_retained_cell_per_diagonal(self, seed):
        instance = gen_random(40, 3, seed=seed)
        b = bucket(instance, Fraction(1))
        retained = filter_weakly_nondominated_cells(b)
        keys = [diagonal_of(c) for c in retained]
        assert len(keys) == len(set(keys))

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=2, max_value=4),
        st.sampled_from([Fraction(1, 2), Fraction(1)]),
    )
    def test_retained_cell_count_bound(self, seed, p, eps):
        instance = gen_random(50, p, seed=seed)
        m = derive_value_bound(instance)
        b = bucket(instance, eps)
        retained = filter_weakly_nondominated_cells(b)
        subdivisions = ratio_steps_to_reach(Fraction(1 << (2 * m)), eps)
        assert len(retained) <= p * (subdivisions + 1) ** (p - 1)


class TestDiagonals:
    def test_all_equal_collapses_to_origin(self):
        assert diagonal_of((3, 3, 3)) == (0, 0, 0)

    def test_min_coordinate_shifted_out(self):
        assert diagonal_of((2, 5)) == (0, 3)

    def test_shifted_cells_share_a_key(self):
        assert diagonal_of((1, 0)) == diagonal_of((2, 1)) == (1, 0)


class TestRatioSteps:
    def test_exact_power(self):
        assert ratio_steps_to_reach(Fraction(8), Fraction(1)) == 3

    def test_rounds_up(self):
        assert ratio_steps_to_reach(Fraction(5), Fraction(1)) == 3

    def test_target_at_most_one(self):
        assert ratio_steps_to_reach(Fraction(1), Fraction(1)) == 0
