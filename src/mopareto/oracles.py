"""Exact simulation of budget-query problems on explicit instances, the
biobjective greedy algorithms built on them, and the adversarial query
answerer that makes two instances indistinguishable to budget queries.

The gap oracle and the biobjective sweeps read one per-instance index, the
sorted columns of the instance's integer image (`Instance._sorted_columns`).
The gap oracle keeps a cached bitset per budget value of the solutions within
it, and each column converts a budget object to its cut once, so a query that
reuses its budget objects, as the construct_via_gap ladder does, costs p dict
lookups and p big-integer ANDs instead of a scan of the instance.  The sweeps
find each answer a constrained ("min f2 subject to f1 <= bound") or
budget-relaxed oracle would give by bisecting prefix minima over the two
sorted orders, O(n log n) per sweep.  Every gap answer can be validated
independently against the instance: `valid_gap_answer` is the exhaustive
check that shares no code with the index.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .constructors import _certified
from .model import (
    ApproximationSet,
    GapQuery,
    Instance,
    RelationKind,
    RelationSpec,
    Solution,
)
from .numerics import _integer, _positive, half_step_delta

__all__ = [
    "GapQuery",
    "AdversaryPrecisionError",
    "AdversarialPair",
    "adversarial_pair",
    "gap_oracle",
    "valid_gap_answer",
    "consistent_gap_answer",
    "greedy_biobjective_min",
    "dual_restrict_2approx",
]


class AdversaryPrecisionError(ValueError):
    """A query's delta is below the adversary's indistinguishability regime."""


def gap_oracle(instance: Instance, query: GapQuery) -> Solution | None:
    """Answer a budget query: a solution within the budgets, or None ("NO").

    Returns the first solution in instance order with f(x) <= b componentwise.
    Answering None when nothing fits b is always correct, since nonexistence
    under b implies nonexistence under the stricter b/(1+delta).

    The answer is the lowest set bit of the AND of the instance's cached
    per-objective bitsets for b (see Instance._sorted_columns).  The index
    keeps one n-bit bitset per distinct floor(b * scale) queried on each
    objective and computes floor(b * scale) once per budget object, keeping
    up to n + 1 objects per objective; on the construct_via_gap path that is
    at most one bitset per budget level, and one floor per level while the
    ladder has at most n + 1 levels.
    """
    if len(query.b) != instance.p:
        raise ValueError("query dimension does not match the instance")
    if not instance.solutions:
        return None
    fits = -1  # every bit set
    for column, bound in zip(instance._sorted_columns, query.b):
        fits &= column.within(bound)
        if not fits:
            return None
    return instance.solutions[(fits & -fits).bit_length() - 1]


def valid_gap_answer(
    instance: Instance, query: GapQuery, answer: Solution | None
) -> bool:
    """Independent exhaustive check of a budget-query answer.

    A returned solution must belong to the instance and fit the budgets; a
    None answer requires that no solution fits b/(1+delta) componentwise.
    """
    if answer is not None:
        try:
            known = instance.solution(answer.id)
        except KeyError:
            return False
        if known.f != answer.f:
            return False
        return all(v <= bound for v, bound in zip(answer.f, query.b))
    shrunk = tuple(Fraction(bound, 1 + query.delta) for bound in query.b)  # exact for ints too
    return not any(
        all(v <= bound for v, bound in zip(sol.f, shrunk))
        for sol in instance.solutions
    )


@dataclass(frozen=True)
class AdversarialPair:
    """Two biobjective instances that budget queries cannot tell apart.

    The smaller instance holds x1 = (1 + 1/l, 1 + 1/l); the larger one adds
    x2 = (1, 1).  For any query with delta >= 1/l there is a shared correct
    answer, so a solver driven only by such queries never discovers x2.
    """

    l: int
    i1: Instance
    i2: Instance

    @property
    def x1(self) -> Solution:
        return self.i1.solutions[0]


def adversarial_pair(l: int) -> AdversarialPair:
    if _integer(l, "l") < 1:
        raise ValueError("l must be a positive integer")
    x1 = Solution("x1", (1 + Fraction(1, l), 1 + Fraction(1, l)))
    x2 = Solution("x2", (Fraction(1), Fraction(1)))
    return AdversarialPair(
        l=l,
        i1=Instance(p=2, solutions=(x1,)),
        i2=Instance(p=2, solutions=(x1, x2)),
    )


def consistent_gap_answer(pair: AdversarialPair, query: GapQuery) -> Solution | None:
    """An answer that is correct for both instances of the pair.

    If b covers x1 componentwise, return x1 (feasible in both instances).
    Otherwise some b_j < 1 + 1/l <= (1 + 1/l) = f_j(x2) * (1 + 1/l), so with
    delta >= 1/l no solution of either instance fits b_j/(1+delta) and None
    is a correct answer for both.  Queries with delta < 1/l are rejected:
    they model precision beyond the adversary's regime.
    """
    if len(query.b) != 2:
        raise ValueError("adversarial queries are biobjective")
    if query.delta < Fraction(1, pair.l):
        raise AdversaryPrecisionError(
            f"delta={query.delta} below 1/l = 1/{pair.l}: precision exceeds adversary regime"
        )
    x1 = pair.x1
    if all(bound >= v for bound, v in zip(query.b, x1.f)):
        return x1
    return None


def _biobjective_sweep(instance: Instance, eps: Fraction, relaxed: bool) -> list[str]:
    """The sweep both biobjective covers share; returns its picks, unverified.

    Repeatedly takes the smallest f1 value t among the uncovered solutions,
    adds the constrained oracle's answer for f1 <= ratio * t and drops what
    it covers within 1 + eps.  The ratio is 1 + eps (greedy_biobjective_min)
    or, when `relaxed`, 1 + delta with (1+delta)**2 <= 1 + eps
    (dual_restrict_2approx).  As ratio <= 1 + eps, the pick covers an
    uncovered s iff f2(pick) <= (1+eps) * f2(s), so the uncovered solutions
    are always the first ones in f2 order: t is a prefix minimum there and
    the pick a prefix minimum in f1 order, two exact bisects per pick.

    Both orders are the instance's sorted-column index.  The sweep compares
    values within one column and multiplies them by ratios only, so each
    column's scale drops out and a Fraction fallback column takes the same code.
    """
    _positive(eps, "eps")  # first: a bound below t would never shrink the uncovered prefix
    if not instance.solutions:
        return []
    ratio = 1 + (half_step_delta(eps) if relaxed else eps)
    f1, f2 = instance._sorted_columns
    rows = instance._rows
    # prefix minima: t over the f2 order; the pick, least f2 and then earliest, over the f1 order,
    # which is least (f2, f1, position) since f1 ties keep instance order
    least_f1 = list(accumulate((rows[k][0] for k in f2._order), min))
    best = list(accumulate(f1._order, lambda a, k: k if rows[k][1] < rows[a][1] else a))
    members: list[str] = []
    uncovered = len(rows)
    while uncovered:
        pick = best[bisect_right(f1._values, ratio * least_f1[uncovered - 1]) - 1]
        members.append(instance.solutions[pick].id)
        uncovered = bisect_left(f2._values, Fraction(rows[pick][1], 1 + eps))
    return members


def greedy_biobjective_min(instance: Instance, eps: Fraction) -> ApproximationSet:
    """Minimum-cardinality cover of a biobjective instance within 1 + eps.

    Runs the shared sweep: for the smallest uncovered first objective value t,
    takes the constrained oracle's answer, the second-objective minimizer
    subject to f1 <= (1+eps) * t, and removes everything it covers.  Members
    are weakly efficient, so the result is certified as a quasi-1 set: it
    covers every solution with at least one exact component.
    """
    if instance.p != 2:
        raise ValueError("the greedy cover works on biobjective instances only")
    members = _biobjective_sweep(instance, eps, relaxed=False)
    return _certified(instance, members, RelationSpec(RelationKind.QUASI_K, eps, k=1))


def dual_restrict_2approx(instance: Instance, eps: Fraction) -> ApproximationSet:
    """Cover within 1 + eps using the budget-relaxed oracle only.

    Runs the same sweep as greedy_biobjective_min with the budget-relaxed
    oracle's answer for the bound (1+delta) * t, where (1+delta)**2 <= 1+eps,
    so the relaxed answer still covers the sweep's anchor solution.
    Cardinality is at most twice the minimum; all members are efficient, and
    the result is certified as a quasi-1 set.
    """
    if instance.p != 2:
        raise ValueError("the relaxed greedy cover works on biobjective instances only")
    members = _biobjective_sweep(instance, eps, relaxed=True)
    return _certified(instance, members, RelationSpec(RelationKind.QUASI_K, eps, k=1))
