"""End-to-end construction pipelines and verification of approximation sets.

The grid pipeline buckets solutions into cells of intra-cell ratio below
1 + eps, keeps only weakly nondominated nonempty cells, and selects a
per-cell representative set suited to the requested relation.  Verification
is independent of construction: it re-checks coverage of every instance
solution from the definitions, on the instance's cached integer image
(`Instance._image`, see `model._scaled`) through an index of its own over the
members' values (no grid, no `Instance._sorted_columns`), and emits a
certificate that `certificate_is_valid` re-checks on Fractions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, product, repeat
from operator import and_, le, mul, or_
from typing import Callable, Iterable

from .dominance import _FRONT_BLOCK, _front
from .dominance import exact_components, r_dominates
from .domsets import greedy_tournament_dominating_set, tournament_view
from .grid import (
    CellIndex,
    GridBucketing,
    bucket,
    filter_weakly_nondominated_cells,
)
from .model import (
    ApproximationSet,
    CertificateEntry,
    GapQuery,
    Instance,
    RelationKind,
    RelationSpec,
    Solution,
    _unchecked,
)
from .numerics import _integer, half_step_delta

__all__ = [
    "UnsupportedRelationError",
    "VerificationFailed",
    "VerifyResult",
    "verify_approximation",
    "certificate_is_valid",
    "grid_select",
    "construct_grid_approx",
    "weakly_efficient_lift",
    "construct_via_gap",
    "GAP_QUERY_LIMIT",
    "QueryLimitExceeded",
]

# budget queries one construct_via_gap sweep may issue; the sweep issues
# levels**p, checked before the first query
GAP_QUERY_LIMIT = 10**6
_VERIFY_BLOCK = 1024  # targets per block of verify_approximation's walk: one member mask each
# a scaled column is tested pairwise when its members' values pass _INDEX_BITS (indexing
# them costs more than it saves) or its masks would pass _INDEX_MASK_BITS bits in all
_INDEX_BITS, _INDEX_MASK_BITS = 256, 1 << 27


class UnsupportedRelationError(ValueError):
    """The requested relation has no general polynomial grid construction."""


class QueryLimitExceeded(RuntimeError):
    """The gap sweep would issue more budget queries than GAP_QUERY_LIMIT."""


class VerificationFailed(ValueError):
    """A set that was required to verify does not cover some solution."""

    def __init__(self, counterexample: str, message: str | None = None):
        super().__init__(message or f"solution {counterexample!r} is not covered")
        self.counterexample = counterexample


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of a coverage check: a certified set, or the first uncovered id."""

    approximation: ApproximationSet | None
    counterexample: str | None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def verify_approximation(
    instance: Instance, members: Iterable[str], spec: RelationSpec
) -> VerifyResult:
    """Check that the members cover every solution under the relation.

    On success the certificate names, for each solution, the first covering
    member in instance order together with all components in which coverage
    is exact.  On failure the counterexample is the first uncovered solution
    in instance order.  Values are compared in the instance's image rows:
    with eps = num/den, "within 1 + eps" is den*a <= (den+num)*b, "exact" a <= b.
    The relation's rule is read only once some pair is compared.

    Its index over the m members is its own (bit t: the t-th in instance order): each
    scaled column sorts their values once and maps each distinct value to the prefix
    bitset of those within 1 + eps of it (at most it, where the rule requires exact),
    one `bisect_right` per value.  Per block of `_VERIFY_BLOCK` targets, the AND of a
    target's masks proposes its lowest bit; a Fraction column, a column past the
    `_INDEX_BITS` or `_INDEX_MASK_BITS` limits and the exact count are tested pairwise on
    it, and only a failed proposal walks the later bits.  O(distinct values * p log m
    + n * p * ceil(m / 64)) word operations, against O(n * m) pair tests for a scan.
    """
    if isinstance(members, str):  # its characters would be read as one-letter ids
        raise ValueError(f"members must be a collection of ids, got {type(members).__name__}")
    # sorted computes the keys in first-occurrence order: the first unknown id raises KeyError
    ordered = sorted(dict.fromkeys(members), key=instance.position)
    rows, ids = instance._rows, instance.ids
    num, den = spec.eps.numerator, spec.eps.denominator
    required, min_exact = spec.exact_rule(instance.p) if rows and ordered else ((), 0)
    positions = range(1, instance.p + 1)
    member_rows = [rows[instance.position(m)] for m in ordered]
    index, pairwise = [], []  # (values, mask per value); (j, values, factors)
    for j, (scale, values) in enumerate(instance._image):  # never range(p): p may be huge
        column = [a[j] for a in member_rows]
        low, high = (1, 1) if j in required else (den, den + num)  # exact, or within 1 + eps
        if scale is not None and max(column, default=0).bit_length() <= _INDEX_BITS:
            order = sorted(range(len(column)), key=column.__getitem__)
            keys, distinct = [low * column[t] for t in order], set(values)
            cuts = list(map(bisect_right, repeat(keys), map(mul, repeat(high), distinct)))
            reached = set(cuts)  # only the prefix bitsets at these cuts are kept
            if len(reached) * len(column) <= _INDEX_MASK_BITS:
                prefixes = enumerate(accumulate((1 << t for t in order), or_, initial=0))
                masks = dict(compress(prefixes, map(reached.__contains__, range(len(order) + 1))))
                index.append((values, dict(zip(distinct, map(masks.__getitem__, cuts)))))
                continue
        pairwise.append((j, values, low, high))
    far = [[low * a[j] for j, _, low, _ in pairwise] for a in member_rows]

    def walk(target: str, b: tuple, proposal: int, slack: tuple) -> CertificateEntry | None:
        """The entry by the first member of a nonzero proposal to pass the pairwise tests."""
        t, later = (proposal & -proposal).bit_length() - 1, None
        while t >= 0:
            if all(map(le, far[t], slack)):
                exact = tuple(compress(positions, map(le, member_rows[t], b)))
                if len(exact) >= min_exact:
                    return tuple.__new__(CertificateEntry, (target, ordered[t], exact))
            if later is None:  # the later set bits, once the lowest fails: byte i is bit t + 1 + i
                ones = bin(proposal >> t + 1)[:1:-1].encode().replace(b"0", b"\0")
                later = compress(range(t + 1, len(ordered)), ones)
            t = next(later, -1)
        return None

    entries: list[CertificateEntry] = []
    for start in range(0, len(rows), _VERIFY_BLOCK):
        block = slice(start, start + _VERIFY_BLOCK)
        targets, block_rows = ids[block], rows[block]
        proposals = [(1 << len(ordered)) - 1] * len(targets)
        for values, mask_of in index:
            proposals = list(map(and_, proposals, map(mask_of.__getitem__, values[block])))
        stop = proposals.index(0) if 0 in proposals else len(targets)  # no member passes there
        if pairwise:
            slack = zip(*[map(mul, repeat(high), values[block]) for _, values, _, high in pairwise])
            found = list(map(walk, targets[:stop], block_rows, proposals, slack))
        else:  # every column is indexed, so a first candidate can fail only the count
            firsts = [(x & -x).bit_length() - 1 for x in proposals[:stop]]
            tests = map(map, repeat(le), map(member_rows.__getitem__, firsts), block_rows)
            exact = map(tuple, map(compress, repeat(positions), tests))
            found = list(map(tuple.__new__, repeat(CertificateEntry),
                             zip(targets, map(ordered.__getitem__, firsts), exact)))
            if min_exact:
                found = [e if len(e[2]) >= min_exact else walk(e[0], b, x, ())
                         for e, b, x in zip(found, block_rows, proposals)]
        if None in found:
            stop = found.index(None)
        if stop < len(targets):
            return VerifyResult(approximation=None, counterexample=targets[stop])
        entries += found
    approx = _unchecked(ApproximationSet, relation=spec, members=tuple(ordered),
                        certificate=tuple(entries))  # instance ids, positions: every rule holds
    return VerifyResult(approximation=approx, counterexample=None)


def _certified(
    instance: Instance, members: Iterable[str], spec: RelationSpec, failure: str | None = None
) -> ApproximationSet:
    """The certified set, or VerificationFailed with `failure` formatted by the counterexample."""
    result = verify_approximation(instance, members, spec)
    if result.approximation is None:
        cx = result.counterexample
        raise VerificationFailed(cx, failure.format(cx) if failure else None)
    return result.approximation


def certificate_is_valid(instance: Instance, aset: ApproximationSet) -> bool:
    """Re-check an approximation set's certificate from scratch.

    Requires: members belong to the instance, every instance solution is
    covered exactly once, each entry's member actually dominates the covered
    solution under the relation (its exactness rule included), and the
    claimed exact components are precisely those in which the member is at
    least as good.
    """
    try:
        member_set = set(aset.members)
        if not member_set <= set(instance.ids):
            return False
        covered = [e.covered for e in aset.certificate]
        if sorted(covered) != sorted(instance.ids):
            return False
        for entry in aset.certificate:
            if entry.by not in member_set:
                return False
            by = instance.solution(entry.by)
            target = instance.solution(entry.covered)
            if not r_dominates(by, target, aset.relation):
                return False
            if entry.exact_indices != exact_components(by, target):
                return False
    except (KeyError, ValueError):
        return False
    return True


def _grid_refusal(spec: RelationSpec, p: int) -> UnsupportedRelationError | None:
    """Why the relation has no grid construction at p, or None: epsilon, one-exact,
    and quasi-k with 2k - 1 <= p (complete cell tournaments) have one."""
    if spec.kind is RelationKind.QUASI_K and 2 * spec.k - 1 > p:
        return UnsupportedRelationError(
            f"quasi-k grid construction needs k <= ceil(p/2) = {-(-p // 2)}, got k={spec.k}"
        )
    if spec.kind in (RelationKind.TWO_EXACT, RelationKind.ONE_EXACT_QUASI_K):
        return UnsupportedRelationError(f"no general grid construction for {spec.kind.value} sets")
    return None


def grid_select(
    instance: Instance, spec: RelationSpec
) -> tuple[GridBucketing, list[CellIndex], list[list[str]] | None]:
    """Bucketing, retained cells in sorted order, and each retained cell's picks.

    The picks are None when `_grid_refusal` gives a reason the relation has no
    grid construction at the instance's p; an empty instance has no cells.
    """
    bucketing = bucket(instance, spec.eps)
    retained = sorted(filter_weakly_nondominated_cells(bucketing))
    if _grid_refusal(spec, instance.p) is not None:
        return bucketing, retained, None
    picks = []
    for cell in retained:
        ids = bucketing.cells[cell]
        if spec.kind is RelationKind.QUASI_K:
            view = tournament_view([instance.solution(i) for i in ids], spec.k)
            picks.append(sorted(greedy_tournament_dominating_set(view)))
        else:  # the lex-min image attains the cell's minimum f1, so it serves one-exact
            picks.append([min(ids, key=lambda i: instance._rows[instance.position(i)])])
    return bucketing, retained, picks


def _grid_members(instance: Instance, spec: RelationSpec) -> list[str]:
    """construct_grid_approx's members, unverified: each retained cell's picks in cell order."""
    refusal = _grid_refusal(spec, instance.p)
    if refusal is not None:
        raise refusal
    _, _, picks = grid_select(instance, spec)
    return [m for cell in picks for m in cell]


def construct_grid_approx(instance: Instance, spec: RelationSpec) -> ApproximationSet:
    """Grid construction: bucket, filter, select per retained cell, verify.

    Supported relations: epsilon and one-exact (one representative per cell)
    and quasi-k with k <= ceil(p/2) (a greedy majority-tournament dominating
    set per cell).  Every other relation raises `_grid_refusal`'s
    UnsupportedRelationError before any bucketing: no general
    polynomial-cardinality construction exists for it.
    """
    return _certified(instance, _grid_members(instance, spec), spec)


def weakly_efficient_lift(
    instance: Instance, members: Iterable[str], eps: Fraction
) -> ApproximationSet:
    """Replace strictly dominated members by weakly efficient strict dominators.

    The input must cover the instance within factor 1 + eps.  Each strictly
    dominated member is swapped for the weakly efficient solution that
    strictly dominates it with the lexicographically smallest image (ties by
    instance order), skipping candidates already used so cardinality is
    preserved whenever distinct dominators exist.  The result consists of
    weakly efficient solutions only and therefore covers every solution with
    at least one exact component.  Images are the instance's integer rows, whose
    positive per-column scales keep every lexicographic order.  The front is read in
    blocks of `_FRONT_BLOCK` ranks, each column sorted with prefix bitsets of its ranks:
    a member's pick is the lowest untaken bit in the AND of one `bisect_left` mask per
    column, in the first block that has one.
    """
    failure = "input set fails epsilon coverage at solution {!r}"
    inbound = _certified(instance, members, RelationSpec(RelationKind.EPSILON, eps), failure)
    rows, ids = instance._rows, instance.ids
    front = _front(rows, strict=True)  # the weakly efficient, least image first
    weakly = {ids[k] for k in front}
    # kept members reserve their ids first so replacements never collide with them
    chosen = [m for m in inbound.members if m in weakly]
    kept = set(chosen)
    lifted = [rows[instance.position(m)] for m in inbound.members if m not in weakly]
    for start in range(0, len(front), _FRONT_BLOCK):
        if not lifted:
            break
        part, waiting = front[start : start + _FRONT_BLOCK], []
        free = sum(1 << r for r, k in enumerate(part) if ids[k] not in kept)  # untaken ranks
        index = []  # per column: the block's values sorted, with prefix masks of their ranks
        for column in zip(*map(rows.__getitem__, part)):
            order = sorted(range(len(part)), key=column.__getitem__)
            masks = list(accumulate((1 << r for r in order), or_, initial=0))
            index.append(([column[r] for r in order], masks))
        for x in lifted:  # in member order, each takes its least untaken rank strictly below
            below = free
            for (values, masks), v in zip(index, x):
                below &= masks[bisect_left(values, v)]
            if below:
                free ^= below & -below
                chosen.append(ids[part[(below & -below).bit_length() - 1]])
            else:
                waiting.append(x)
        lifted = waiting  # a member left at the end has every dominator serving: they cover it
    return _certified(instance, chosen, RelationSpec(RelationKind.QUASI_K, eps, k=1))


def construct_via_gap(
    gap: Callable[[GapQuery], Solution | None],
    eps: Fraction,
    value_bound: int,
    p: int,
) -> list[Solution]:
    """Discover a covering set using only budget-threshold queries.

    Splits the budget into a delta with (1+delta)**2 <= 1+eps, queries every
    point of the geometric budget grid {2**-M * (1+delta)**t} per dimension
    in lexicographic order of budget vectors, and prunes the discovered
    solutions to their efficient front (`dominance._front`; factor-1 pruning
    keeps the end-to-end guarantee at (1+delta)**2), image twins first
    collapsed to the first discovered: one solution per minimal image.  Returns
    the kept solutions in discovery order; callers verify against the
    underlying instance where one is available.

    The sweep issues exactly levels**p queries.  The levels are counted by
    multiplication, holding only the last, and the count raises
    QueryLimitExceeded before the first query once levels**p passes
    GAP_QUERY_LIMIT, its message giving the count in digits up to p =
    GAP_QUERY_LIMIT.bit_length() and as `2**p` past it.  Only the smallest budget vector is validated, once:
    the levels ascend from it, so each query is built unchecked and equals a validated one.
    """
    if _integer(p, "p") < 1:
        raise ValueError("p must be at least 1")
    if _integer(value_bound, "value_bound") < 0:
        raise ValueError("value_bound must be nonnegative")
    delta = half_step_delta(eps)
    # top budget must reach (1+delta) * 2**M so every value has a grid
    # threshold at most a factor (1+delta) above its (1+delta)-scaled image
    ratio = 1 + delta
    floor, top = Fraction(1, 1 << value_bound), ratio * (1 << value_bound)
    cap = GAP_QUERY_LIMIT.bit_length()  # 2**cap passes the limit, so a p past it is refused alike
    count, level = 1, floor
    while level < top:
        count, level = count + 1, level * ratio  # count >= 2 at every check, so 2 past the cap
        if count ** min(p, cap) > GAP_QUERY_LIMIT:
            queries = count**p if p <= cap else f"{count}**{p}"  # past the cap, count is 2
            raise QueryLimitExceeded(
                f"{queries} or more budget queries ({count} or more levels, p={p}) "
                f"exceed the gap-query limit {GAP_QUERY_LIMIT}"
            )
    levels = accumulate(repeat(ratio, count - 1), mul, initial=floor)
    GapQuery(b=(floor,) * p, delta=delta)  # the least budgets; later queries only have larger ones
    discovered: dict[str, Solution] = {}
    for budgets in product(levels, repeat=p):
        answer = gap(_unchecked(GapQuery, b=budgets, delta=delta))
        if answer is not None:
            discovered.setdefault(answer.id, answer)
    first: dict[tuple, Solution] = {}  # image twins collapse to the first discovered
    found = [x for x in discovered.values() if first.setdefault(x.f, x) is x]
    return [found[i] for i in sorted(_front([x.f for x in found], strict=False))]
