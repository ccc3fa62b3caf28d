import math
import random
import sys
from fractions import Fraction
from itertools import compress
from operator import le

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mopareto import constructors, model
from mopareto.constructors import (
    QueryLimitExceeded,
    UnsupportedRelationError,
    VerificationFailed,
    VerifyResult,
    certificate_is_valid,
    construct_grid_approx,
    construct_via_gap,
    verify_approximation,
    weakly_efficient_lift,
)
from mopareto.dominance import (
    DominationDigraph,
    _check_dims,
    exact_components,
    r_dominates,
    weakly_efficient_set,
)
from mopareto.domsets import greedy_cover_dominating_set
from mopareto.generators import (
    gen_prop_dominated,
    gen_prop_one_exact,
    gen_random,
)
from mopareto.grid import bucket, filter_weakly_nondominated_cells, ratio_steps_to_reach
from mopareto.model import (
    ApproximationSet,
    CertificateEntry,
    GapQuery,
    Instance,
    RelationKind,
    RelationSpec,
    Solution,
    derive_value_bound,
)
from mopareto.numerics import half_step_delta
from mopareto.oracles import gap_oracle, valid_gap_answer

F = Fraction


def inst(*vectors):
    return Instance(
        p=len(vectors[0]),
        solutions=tuple(
            Solution(f"s{i}", tuple(F(v) for v in vec))
            for i, vec in enumerate(vectors, start=1)
        ),
    )


STAIRCASE = inst((1, 4), (2, 3), (3, 2), (4, 1))
AB = Instance(p=2, solutions=(Solution("a", (F(1), F(2))), Solution("b", (F(2), F(1)))))
EPS_ONE = RelationSpec(RelationKind.EPSILON, F(1))
AB_CALLS = {  # the two entry points that take members, each returning its certified set
    "verify": lambda m: verify_approximation(AB, m, EPS_ONE).approximation,
    "lift": lambda m: weakly_efficient_lift(AB, m, F(1)),
}


LIFT_FRACTIONS = [F(3, 2), F(5, 7), F(9, 11), F(12, 13), F(17, 64), F(65, 64)]


class TestVerify:
    def test_full_set_covers_itself_under_any_relation(self):
        instance = gen_random(10, 3, seed=2)
        for spec in (
            RelationSpec(RelationKind.EPSILON, F(1, 3)),
            RelationSpec(RelationKind.TWO_EXACT, F(1, 3)),
            RelationSpec(RelationKind.ONE_EXACT_QUASI_K, F(1, 3), k=2),
        ):
            result = verify_approximation(instance, instance.ids, spec)
            assert result.ok
            assert certificate_is_valid(instance, result.approximation)

    def test_dominated_pair_covers_quasi_one(self):
        instance = gen_prop_dominated(F(1))
        spec = RelationSpec(RelationKind.QUASI_K, F(1), k=1)
        result = verify_approximation(instance, ["x5", "x6"], spec)
        assert result.ok
        cert = {e.covered: e for e in result.approximation.certificate}
        assert cert["x1"].by == "x5" and 2 in cert["x1"].exact_indices
        assert cert["x4"].by == "x6" and 1 in cert["x4"].exact_indices

    def test_first_uncovered_in_instance_order_is_reported(self):
        # x5 alone covers x1, x3, x5, x6 but has no exact component against
        # x2 = (3/2, 5/2) and misses x4 within the slack; x2 comes first
        instance = gen_prop_dominated(F(1))
        spec = RelationSpec(RelationKind.QUASI_K, F(1), k=1)
        result = verify_approximation(instance, ["x5"], spec)
        assert not result.ok
        assert result.counterexample == "x2"

    def test_covering_member_is_first_in_instance_order(self):
        instance = inst((1, 1), (1, 1), (5, 5))
        spec = RelationSpec(RelationKind.EPSILON, F(10))
        result = verify_approximation(instance, ["s2", "s1"], spec)
        assert result.ok
        assert all(e.by == "s1" for e in result.approximation.certificate)
        assert result.approximation.members == ("s1", "s2")

    def test_unknown_member_rejected(self):
        with pytest.raises(KeyError, match="ghost"):
            verify_approximation(STAIRCASE, ["ghost"], RelationSpec(RelationKind.EPSILON, F(1)))

    def test_the_first_unknown_member_in_the_given_order_is_named(self):
        # "zz" comes first in the given order, "aa" first in sorted order
        members = ["s2", "zz", "s1", "aa", "zz"]
        spec = RelationSpec(RelationKind.EPSILON, F(1))
        for verify in (verify_approximation, reference_verify):
            with pytest.raises(KeyError, match="^\"unknown solution id: 'zz'\"$"):
                verify(STAIRCASE, members, spec)

    @pytest.mark.parametrize("members", ["ab", "abc", ""])
    @pytest.mark.parametrize("call", sorted(AB_CALLS))
    def test_a_str_of_ids_is_refused(self, call, members):
        # read as one-letter ids, "ab" was certified as ('a', 'b') and "abc" raised a KeyError
        with pytest.raises(ValueError, match="^members must be a collection of ids, got str$"):
            AB_CALLS[call](members)

    @pytest.mark.parametrize(
        "members", [("a", "b"), ["b", "a"], {"a", "b"}], ids=["tuple", "list", "set"]
    )
    @pytest.mark.parametrize("call", sorted(AB_CALLS))
    def test_a_collection_of_the_same_ids_still_certifies(self, call, members):
        aset = AB_CALLS[call](members)
        assert aset.members == ("a", "b") and certificate_is_valid(AB, aset)

    def test_tampered_certificates_fail_recheck(self):
        instance = gen_prop_dominated(F(1))
        spec = RelationSpec(RelationKind.QUASI_K, F(1), k=1)
        good = verify_approximation(instance, ["x5", "x6"], spec).approximation
        assert certificate_is_valid(instance, good)

        missing = ApproximationSet(spec, good.members, good.certificate[1:])
        assert not certificate_is_valid(instance, missing)

        wrong_exact = ApproximationSet(
            spec,
            good.members,
            (CertificateEntry(good.certificate[0].covered, good.certificate[0].by, (1, 2)),)
            + good.certificate[1:],
        )
        assert not certificate_is_valid(instance, wrong_exact)

        outsider = ApproximationSet(
            spec,
            good.members,
            (CertificateEntry(good.certificate[0].covered, "x1", (2,)),)
            + good.certificate[1:],
        )
        assert not certificate_is_valid(instance, outsider)  # x1 is not a member

        ghost = ApproximationSet(spec, good.members + ("ghost",), good.certificate)
        assert not certificate_is_valid(instance, ghost)  # ghost is not in the instance

    def test_relation_rule_is_only_checked_against_entries(self):
        # an empty instance has an empty certificate, valid even when k > p
        empty = Instance(p=2, solutions=())
        for kind, k in ((RelationKind.QUASI_K, 3), (RelationKind.TWO_EXACT, None)):
            aset = ApproximationSet(RelationSpec(kind, F(1), k), ())
            assert certificate_is_valid(empty, aset)
        one = Instance(p=1, solutions=(Solution("a", (F(1),)),))
        two_exact = RelationSpec(RelationKind.TWO_EXACT, F(1))
        entry = CertificateEntry("a", "a", (1,))
        assert not certificate_is_valid(one, ApproximationSet(two_exact, ("a",), (entry,)))


def reference_ordered_members(instance, members):
    """The member-ordering loop verify_approximation replaced by one sorted call."""
    seen = set()
    unique = []
    for m in members:
        instance.position(m)  # raises KeyError on unknown ids
        if m not in seen:
            seen.add(m)
            unique.append(m)
    return sorted(unique, key=instance.position)


# Reference verification: the pairwise loop the column-scaled kernel replaced,
# one r_dominates and one exact_components call per (member, target) pair.
def reference_verify(instance, members, spec):
    ordered = reference_ordered_members(instance, members)
    member_solutions = [instance.solution(m) for m in ordered]
    entries = []
    for target in instance.solutions:
        for m in member_solutions:
            if r_dominates(m, target, spec):
                entries.append(
                    CertificateEntry(
                        covered=target.id,
                        by=m.id,
                        exact_indices=exact_components(m, target),
                    )
                )
                break
        else:
            return VerifyResult(approximation=None, counterexample=target.id)
    approx = ApproximationSet(
        relation=spec, members=tuple(ordered), certificate=tuple(entries)
    )
    return VerifyResult(approximation=approx, counterexample=None)


def outcome(verify, instance, members, spec):
    """A verifier's result, or its ValueError (the relation's rule, read at a pair) as text."""
    try:
        return verify(instance, members, spec)
    except ValueError as exc:
        return f"ValueError: {exc}"


QUASI_KINDS = (RelationKind.QUASI_K, RelationKind.ONE_EXACT_QUASI_K)
EPS_CHOICES = [F(1, 2), F(1), F(1, 3), F(2, 5), F(3, 7)]
# a column's anchors differ in denominator, so its scale is a true LCM
ANCHORS = [F(1), F(1, 2), F(2, 3), F(3, 5), F(5, 7), F(7, 4)]
STEP = 1 + F(1, 1009)  # one step either side of a boundary


@st.composite
def verify_cases(draw):
    """An instance on the boundaries of its relation, a member list and the relation.

    Every value is anchor * (1+eps)**j * STEP**s with j in 0..2 and s in -1..1,
    so pairs in one column sit exactly on the exact (a = b) and the 1+eps
    (a = (1+eps)*b) boundaries or one STEP either side of them.
    """
    p = draw(st.integers(min_value=1, max_value=5))
    kind = draw(st.sampled_from(list(RelationKind)))
    k = draw(st.integers(min_value=1, max_value=p)) if kind in QUASI_KINDS else None
    eps = draw(st.sampled_from(EPS_CHOICES))
    anchors = [draw(st.lists(st.sampled_from(ANCHORS), min_size=1, max_size=2)) for _ in range(p)]
    ladder = st.tuples(st.integers(min_value=0, max_value=2), st.integers(min_value=-1, max_value=1))

    def value(column):
        j, s = draw(ladder)
        return draw(st.sampled_from(anchors[column])) * (1 + eps) ** j * STEP**s

    images = [tuple(value(c) for c in range(p)) for _ in range(draw(st.integers(0, 7)))]
    images += draw(st.lists(st.sampled_from(images), max_size=2)) if images else []  # twins
    solutions = [Solution(f"s{i}", image) for i, image in enumerate(images)]
    instance = Instance(p=p, solutions=tuple(draw(st.permutations(solutions))))
    ids = list(instance.ids)
    members = draw(
        st.one_of(
            st.lists(st.sampled_from(ids), max_size=2 * len(ids)) if ids else st.just([]),
            st.permutations(ids).map(list),
        )
    )
    return instance, members, RelationSpec(kind, eps, k)


class TestVerifyKernelMatchesTheOldLoop:
    """verify_approximation on column-scaled values returns what the pairwise loop returned.

    The scale limit is model._SCALE_BITS, read when an instance first builds
    its cached image, so each instance is built after the limit is patched.
    """

    @settings(max_examples=400, deadline=None)
    @given(verify_cases(), st.sampled_from([0, 12, 24, None]))
    def test_same_result_on_scaled_fallback_and_mixed_columns(self, case, scale_bits):
        # scale_bits: every column falls back (0), some do (12, 24), none do (None)
        instance, members, spec = case
        with pytest.MonkeyPatch.context() as mp:
            if scale_bits is not None:
                mp.setattr(model, "_SCALE_BITS", scale_bits)
            instance = Instance(instance.p, instance.solutions)  # no image cached yet
            got = outcome(verify_approximation, instance, members, spec)
            if scale_bits == 0:
                assert all(scale is None for scale, _ in instance._image) or not instance.solutions
        assert got == outcome(reference_verify, instance, members, spec)
        if isinstance(got, VerifyResult) and got.ok:
            assert certificate_is_valid(instance, got.approximation)

    @pytest.mark.parametrize("scale_bits", [0, 12, None])
    @pytest.mark.parametrize("kind", list(RelationKind))
    def test_each_boundary_and_one_step_either_side(self, kind, scale_bits, monkeypatch):
        # the target t and, per member, one component moved onto or past a boundary
        if scale_bits is not None:
            monkeypatch.setattr(model, "_SCALE_BITS", scale_bits)
        eps = F(2, 5)
        t = (F(5, 7), F(2, 3), F(3, 5))
        spec = RelationSpec(kind, eps, 1 if kind in QUASI_KINDS else None)
        for column in range(3):
            for factor in (1 / STEP, F(1), STEP, (1 + eps) / STEP, 1 + eps, (1 + eps) * STEP):
                m = tuple(v * factor if c == column else v for c, v in enumerate(t))
                instance = Instance(3, (Solution("m", m), Solution("t", t)))
                got = verify_approximation(instance, ["m"], spec)
                assert got == reference_verify(instance, ["m"], spec), (column, factor)

    def test_a_column_is_scaled_to_integers_or_kept_past_the_bit_limit(self, monkeypatch):
        small, large = (F(1, 2), F(2, 3), F(5, 4)), (F(1, 3), F(1, 5), F(2, 7))
        assert model._scaled(small) == (12, [6, 8, 15])
        assert model._scaled(large) == (105, [35, 21, 30])
        monkeypatch.setattr(model, "_SCALE_BITS", 5)  # 12 fits in 5 bits, 105 does not
        assert model._scaled(small) == (12, [6, 8, 15])
        scale, values = model._scaled(large)
        assert scale is None and values is large
        instance = Instance(2, tuple(Solution(f"s{i}", f) for i, f in enumerate(zip(small, large))))
        assert instance._image == ((12, [6, 8, 15]), (None, large))
        assert instance._rows == ((6, F(1, 3)), (8, F(1, 5)), (15, F(2, 7)))

    @pytest.mark.parametrize(
        "kind, k",
        [(kind, None) for kind in RelationKind if kind not in QUASI_KINDS]
        + [(kind, k) for kind in QUASI_KINDS for k in (1, 2)],
    )
    def test_coprime_4000_digit_denominators_fall_back_and_agree(self, kind, k):
        # pairwise coprime: consecutive integers, and big+1, big+3 both odd
        big = 10**3999
        eps = F(1, 2)
        huge = [F(big + 1 + d, big + d) for d in (1, 2, 3)]
        images = [
            (huge[0], F(3, 2)),
            (huge[1] * (1 + eps), F(1)),
            (huge[2], F(4, 3)),
            (huge[0] * (1 + eps), F(5, 4)),
            (huge[1], F(3, 2) * (1 + eps)),
        ]
        instance = inst(*images)
        column, other = zip(*images)
        assert model._scaled(column) == (None, column)  # falls back
        assert instance._image[0] == (None, column)
        assert all(type(v) is int for v in instance._image[1][1])  # is scaled
        spec = RelationSpec(kind, eps, k)
        for members in (["s1"], ["s1", "s3"], ["s3", "s2", "s3"], list(instance.ids)):
            got = verify_approximation(instance, members, spec)
            assert got == reference_verify(instance, members, spec), members
            if got.ok:
                assert certificate_is_valid(instance, got.approximation)


# The member scan the member-rank index replaced, kept verbatim: for each target, the
# members in instance order until one is within 1 + eps in every column and passes the rule.
def reference_verify_approximation(instance, members, spec):
    if isinstance(members, str):  # its characters would be read as one-letter ids
        raise ValueError(f"members must be a collection of ids, got {type(members).__name__}")
    # sorted computes the keys in first-occurrence order: the first unknown id raises KeyError
    ordered = sorted(dict.fromkeys(members), key=instance.position)
    rows = instance._rows
    num, den = spec.eps.numerator, spec.eps.denominator
    required, min_exact = spec.exact_rule(instance.p) if rows and ordered else ((), 0)
    must, positions = {i + 1 for i in required}, range(1, instance.p + 1)
    member_rows = [rows[instance.position(m)] for m in ordered]
    coverers = [(m, a, [den * x for x in a]) for m, a in zip(ordered, member_rows)]
    entries = []
    for target, b in zip(instance.solutions, rows):
        slack_b = [(den + num) * y for y in b]
        for m, a, den_a in coverers:
            if all(map(le, den_a, slack_b)):
                exact = tuple(compress(positions, map(le, a, b)))
                if len(exact) >= min_exact and must.issubset(exact):
                    entries.append(CertificateEntry(target.id, m, exact))
                    break
        else:
            return VerifyResult(approximation=None, counterexample=target.id)
    # instance ids, positions: every rule holds
    approx = model._unchecked(ApproximationSet, relation=spec, members=tuple(ordered),
                              certificate=tuple(entries))
    return VerifyResult(approximation=approx, counterexample=None)


def raised(verify, instance, members, spec):
    """A verifier's result, or the type and text of what it raised."""
    try:
        return verify(instance, members, spec)
    except (KeyError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def scan_cases(draw):
    """`verify_cases`, with k up to p + 1 (past p the rule raises), and its member list
    replaced, now and then, by every other id around an outlier that no other solution
    covers (at the first, a middle or the last position), by one with an unknown id, or
    by a str."""
    instance, members, spec = draw(verify_cases())
    if spec.k is not None and draw(st.booleans()):
        spec = RelationSpec(spec.kind, spec.eps, spec.k + 1)
    shape = draw(st.sampled_from(["drawn", "outlier", "unknown", "str"]))
    solutions = list(instance.solutions)
    if shape == "outlier" and solutions:
        # a third of each column's least value: eps <= 1, so no other solution is within 1 + eps
        low = tuple(min(column) / 3 for column in zip(*(s.f for s in solutions)))
        at = draw(st.sampled_from([0, len(solutions) // 2, len(solutions)]))
        solutions.insert(at, Solution("out", low))
        instance = Instance(instance.p, tuple(solutions))
        members = draw(st.permutations([s.id for s in solutions if s.id != "out"])).copy()
        members += draw(st.lists(st.sampled_from(members), max_size=2)) if members else []
    elif shape == "unknown":
        members = list(members)
        members.insert(draw(st.integers(0, len(members))), "ghost")
    elif shape == "str":
        members = "".join(members)
    return instance, members, spec


class TestVerifyMatchesTheMemberScan:
    """The member-rank index proposes what the scan finds: the same members, certificate
    and counterexample, and the same exceptions, across blocks and index limits."""

    WIDTH, MASKS = constructors._INDEX_BITS, constructors._INDEX_MASK_BITS
    # half the examples index every scaled column; the rest leave some or all pairwise
    LIMITS = st.one_of(
        st.just((WIDTH, MASKS)), st.sampled_from([(0, MASKS), (8, MASKS), (WIDTH, 0), (WIDTH, 4)])
    )

    @settings(max_examples=300, deadline=None)
    @given(
        scan_cases(),
        st.sampled_from([1, 2, 3, constructors._VERIFY_BLOCK]),
        st.sampled_from([0, 12, 24, None]),
        LIMITS,
    )
    # s2's first candidate s1 is within 1 + eps but exact in one column, not k = 2
    @example((inst((1, 3), (2, 2)), ["s2", "s1"], RelationSpec(RelationKind.QUASI_K, F(1), 2)),
             constructors._VERIFY_BLOCK, None, (WIDTH, MASKS))
    # s2 covers s1 on both boundaries: equal in the exact column, 1 + eps times it in the other
    @example((inst((1, 1), (1, 2)), ["s2"], RelationSpec(RelationKind.ONE_EXACT, F(1))),
             constructors._VERIFY_BLOCK, None, (WIDTH, MASKS))
    def test_same_result_and_same_exceptions(self, case, block, scale_bits, limits):
        # scale_bits: every column falls back to Fractions (0), some do (12, 24), none
        # does (None); limits: _INDEX_BITS and _INDEX_MASK_BITS
        instance, members, spec = case
        index_bits, mask_bits = limits
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(constructors, "_VERIFY_BLOCK", block)
            mp.setattr(constructors, "_INDEX_BITS", index_bits)
            mp.setattr(constructors, "_INDEX_MASK_BITS", mask_bits)
            if scale_bits is not None:
                mp.setattr(model, "_SCALE_BITS", scale_bits)
            instance = Instance(instance.p, instance.solutions)  # no image cached yet
            got = raised(verify_approximation, instance, members, spec)
        assert got == raised(reference_verify_approximation, instance, members, spec)
        if isinstance(got, VerifyResult) and got.ok:
            assert certificate_is_valid(instance, got.approximation)


class TestRuleIsReadOnlyWhenAPairIsCompared:
    """two-exact and quasi-k with k=2 cannot apply at p = 1; verification notices at a pair."""

    SPECS = [
        RelationSpec(RelationKind.TWO_EXACT, F(1)),
        RelationSpec(RelationKind.QUASI_K, F(1), k=2),
    ]

    @pytest.mark.parametrize("spec", SPECS)
    def test_empty_instance_verifies(self, spec):
        empty = Instance(p=1, solutions=())
        result = verify_approximation(empty, [], spec)
        assert result.ok and result.approximation.certificate == ()

    def test_an_empty_instance_at_any_p_verifies_and_lifts(self):
        # nothing may be built per objective: p = 10**20 columns would never finish
        empty = Instance(p=10**20, solutions=())
        result = verify_approximation(empty, [], RelationSpec(RelationKind.EPSILON, F(1, 2)))
        assert result.ok and result.approximation.certificate == ()
        assert weakly_efficient_lift(empty, [], F(1, 2)).members == ()

    @pytest.mark.parametrize("spec", SPECS)
    def test_empty_member_list_fails_at_the_first_solution(self, spec):
        one = inst((2,), (1,))
        assert verify_approximation(one, [], spec) == VerifyResult(None, "s1")

    @pytest.mark.parametrize(
        "spec, message",
        [
            (SPECS[0], "two-exact dominance needs at least two objectives"),
            (SPECS[1], "k=2 exceeds the number of objectives p=1"),
        ],
    )
    def test_a_compared_pair_raises(self, spec, message):
        with pytest.raises(ValueError, match=message):
            verify_approximation(inst((2,), (1,)), ["s2"], spec)


class TestTamperedCertificatesAreRejected:
    """Each tampering fails one of the entry checks that certificate_is_valid keeps."""

    EPS = F(1)
    SPEC = RelationSpec(RelationKind.QUASI_K, EPS, k=1)

    def good(self):
        instance = gen_prop_dominated(self.EPS)
        aset = verify_approximation(instance, ["x5", "x6"], self.SPEC).approximation
        assert certificate_is_valid(instance, aset)
        return instance, aset

    @staticmethod
    def replaced(aset, index, entry):
        certificate = aset.certificate[:index] + (entry,) + aset.certificate[index + 1:]
        return ApproximationSet(aset.relation, aset.members, certificate)

    def test_every_wrong_exact_indices(self):
        instance, aset = self.good()
        for index, entry in enumerate(aset.certificate):
            for claim in ((), (1,), (2,), (1, 2), (2, 1), (1, 1)):
                if claim != entry.exact_indices:
                    forged = CertificateEntry(entry.covered, entry.by, claim)
                    assert not certificate_is_valid(instance, self.replaced(aset, index, forged))

    def test_non_member_by_that_dominates(self):
        instance, aset = self.good()
        index = [e.covered for e in aset.certificate].index("x5")
        x2, x5 = instance.solution("x2"), instance.solution("x5")
        forged = CertificateEntry("x5", "x2", exact_components(x2, x5))
        assert r_dominates(x2, x5, self.SPEC) and "x2" not in aset.members
        assert not certificate_is_valid(instance, self.replaced(aset, index, forged))

    def test_member_by_that_does_not_dominate(self):
        instance, aset = self.good()
        for index, entry in enumerate(aset.certificate):
            target = instance.solution(entry.covered)
            for member in aset.members:
                by = instance.solution(member)
                if not r_dominates(by, target, self.SPEC):
                    forged = CertificateEntry(entry.covered, member, exact_components(by, target))
                    assert not certificate_is_valid(instance, self.replaced(aset, index, forged))

    @pytest.mark.parametrize("kind", [RelationKind.QUASI_K, RelationKind.ONE_EXACT_QUASI_K])
    def test_k_beyond_p_with_entries(self, kind):
        instance, aset = self.good()
        relation = RelationSpec(kind, self.EPS, k=3)
        assert not certificate_is_valid(
            instance, ApproximationSet(relation, aset.members, aset.certificate)
        )


class TestGridConstruction:
    def test_single_solution_any_supported_relation(self):
        one = inst((3, 4, 5))
        for spec in (
            RelationSpec(RelationKind.EPSILON, F(1)),
            RelationSpec(RelationKind.ONE_EXACT, F(1)),
            RelationSpec(RelationKind.QUASI_K, F(1), k=2),
        ):
            assert construct_grid_approx(one, spec).members == ("s1",)

    def test_dominated_family_epsilon_one_member_per_retained_cell(self):
        instance = gen_prop_dominated(F(1))
        spec = RelationSpec(RelationKind.EPSILON, F(1))
        aset = construct_grid_approx(instance, spec)
        bucketing = bucket(instance, F(1))
        retained = filter_weakly_nondominated_cells(bucketing)
        assert len(aset.members) <= len(retained)
        assert certificate_is_valid(instance, aset)

    def test_unsupported_relations_rejected(self):
        instance = gen_random(6, 4, seed=0)
        for spec in (
            RelationSpec(RelationKind.TWO_EXACT, F(1)),
            RelationSpec(RelationKind.ONE_EXACT_QUASI_K, F(1), k=2),
            RelationSpec(RelationKind.QUASI_K, F(1), k=3),  # ceil(4/2) = 2 < 3
        ):
            with pytest.raises(UnsupportedRelationError):
                construct_grid_approx(instance, spec)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_quasi_k_construction_verifies_with_small_cells(self, seed):
        instance = gen_random(200, 4, seed=seed, value_range=3)
        spec = RelationSpec(RelationKind.QUASI_K, F(1, 2), k=2)
        aset = construct_grid_approx(instance, spec)
        assert certificate_is_valid(instance, aset)
        bucketing = bucket(instance, F(1, 2))
        retained = filter_weakly_nondominated_cells(bucketing)
        cap = math.ceil(math.log2(len(instance))) + 1
        assert len(aset.members) <= len(retained) * cap


class TestWeaklyEfficientLift:
    def test_already_weakly_efficient_unchanged(self):
        lifted = weakly_efficient_lift(STAIRCASE, ["s1", "s4"], F(1))
        assert lifted.members == ("s1", "s4")

    def test_dominated_pair_lifts_to_their_dominators(self):
        instance = gen_prop_dominated(F(1))
        lifted = weakly_efficient_lift(instance, ["x5", "x6"], F(1))
        assert lifted.members == ("x2", "x3")
        assert lifted.relation == RelationSpec(RelationKind.QUASI_K, F(1), k=1)
        assert certificate_is_valid(instance, lifted)

    def test_one_exact_chain_lifts_interior_points(self):
        n = 2
        instance = gen_prop_one_exact(F(1, 10), n)
        eps = (1 + F(1, 10)) ** (2 * n) - 1
        lifted = weakly_efficient_lift(instance, ["x0", "x1", "x2"], eps)
        assert lifted.members == ("x0", "xbar1", "xbar2")
        weakly = weakly_efficient_set(instance)
        assert all(m in weakly for m in lifted.members)

    def test_cardinality_preserved(self):
        instance = gen_prop_dominated(F(1))
        lifted = weakly_efficient_lift(instance, ["x5", "x6"], F(1))
        assert len(lifted.members) == 2

    def test_non_covering_input_rejected(self):
        with pytest.raises(VerificationFailed) as info:
            weakly_efficient_lift(STAIRCASE, ["s1"], F(1, 10))
        assert info.value.counterexample in STAIRCASE.ids

    def test_kept_members_reserve_their_ids_before_replacements(self):
        # s1 is dominated by both s2 and s3; s2 is itself a member, so s1's
        # replacement must skip s2 and take s3, keeping the cardinality at 2
        instance = inst((3, 3), (1, 2), (2, 1))
        lifted = weakly_efficient_lift(instance, ["s1", "s2"], F(3))
        assert lifted.members == ("s2", "s3")

    # column 0 over denominators 64, 127 and 2 (an LCM of 13 bits), column 1 over thirds;
    # s4 and s5 cover the rest, and their picks s2 and s3 come from the tie 65/64
    MIXED = [
        (F(65, 64), F(5, 3)),
        (F(65, 64), F(4, 3)),
        (F(128, 127), 2),
        (F(3, 2), 2),
        (F(3, 2), F(7, 3)),
    ]

    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda p: st.lists(
                st.tuples(*[st.one_of(st.integers(1, 3), st.sampled_from(LIFT_FRACTIONS))] * p),
                min_size=1,
                max_size=9,
            )
        ),
        st.randoms(use_true_random=False),
        st.sampled_from([0, 12, None]),
        st.sampled_from([1, 2, 3, constructors._FRONT_BLOCK]),
    )
    @example(MIXED, random.Random(27), 12, constructors._FRONT_BLOCK)  # 27 and 17 draw
    @example(MIXED, random.Random(17), 12, constructors._FRONT_BLOCK)  # {s4, s5} and {s4}
    @example(MIXED, random.Random(27), None, constructors._FRONT_BLOCK)
    def test_matches_the_sorted_candidate_loop(self, vectors, rng, scale_bits, block):
        # images from {1,2,3} and fractions over 2, 7, 11, 13 and 64, so image twins
        # and lexicographic ties broken in another scaled column are common; the input
        # set is a random subset plus whatever it leaves uncovered at eps=1.
        # scale_bits: every column falls back (0), a column whose LCM passes 12
        # bits does (12), none does (None); block: front ranks per block of the lift
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(constructors, "_FRONT_BLOCK", block)
            if scale_bits is not None:
                mp.setattr(model, "_SCALE_BITS", scale_bits)
            instance = inst(*vectors)  # its image is cached under the patched limit
            eps = F(1)
            spec = RelationSpec(RelationKind.EPSILON, eps)
            subset = [s for s in instance.ids if rng.random() < 0.5]
            members = subset + [
                x.id for x in instance.solutions
                if not any(r_dominates(instance.solution(m), x, spec) for m in subset)
            ]
            lifted = weakly_efficient_lift(instance, members, eps)
            if vectors == self.MIXED and scale_bits == 12:
                assert [scale is None for scale, _ in instance._image] == [True, False]
                assert lifted.members == (("s2", "s3") if len(subset) == 2 else ("s2",))
        inbound = verify_approximation(instance, members, spec).approximation
        chosen = reference_lift(instance, inbound.members)
        assert lifted.members == tuple(sorted(chosen, key=instance.position))

    def test_merge_only_when_no_unused_dominator_remains(self):
        # x5's only weakly efficient strict dominator is x2, which is already
        # a member; the merged set still covers everything
        instance = gen_prop_dominated(F(1))
        lifted = weakly_efficient_lift(instance, ["x2", "x5", "x6"], F(1))
        assert lifted.members == ("x2", "x3")
        assert certificate_is_valid(instance, lifted)


def strictly_dominates(x: Solution, y: Solution) -> bool:
    """Strictly better in every objective."""
    _check_dims(x.f, y.f)
    return all(a < b for a, b in zip(x.f, y.f))


def reference_lift(instance, members_in_order):
    """Reference lift loop: sort each member's weakly efficient strict dominators
    stably by image, then take the first one not yet taken."""
    weakly = weakly_efficient_set(instance)
    # kept members reserve their ids first so replacements never collide with them
    taken = {m for m in members_in_order if m in weakly}
    chosen: list[str] = []
    for member in members_in_order:
        if member in weakly:
            chosen.append(member)
            continue
        sol = instance.solution(member)
        candidates = sorted(
            (
                c
                for c in instance.solutions
                if c.id in weakly and strictly_dominates(c, sol)
            ),
            key=lambda c: c.f,
        )
        unused = [c.id for c in candidates if c.id not in taken]
        if not unused:
            # every dominator already serves; those members cover this one too
            continue
        taken.add(unused[0])
        chosen.append(unused[0])
    return chosen


class TestGapConstruction:
    def test_single_solution_discovered(self):
        one = inst((2, 3))
        found = construct_via_gap(
            lambda q: gap_oracle(one, q), F(1), derive_value_bound(one), one.p
        )
        assert [s.id for s in found] == ["s1"]

    def test_staircase_output_verifies_under_epsilon(self):
        m = derive_value_bound(STAIRCASE)
        queries = []

        def checked_oracle(query: GapQuery):
            answer = gap_oracle(STAIRCASE, query)
            assert valid_gap_answer(STAIRCASE, query, answer)
            queries.append(query)
            return answer

        found = construct_via_gap(checked_oracle, F(1), m, STAIRCASE.p)
        spec = RelationSpec(RelationKind.EPSILON, F(1))
        assert verify_approximation(STAIRCASE, [s.id for s in found], spec).ok
        assert queries  # the constructor only saw the instance through the oracle

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_biobjective_instances_covered(self, seed):
        instance = gen_random(10, 2, seed=seed, value_range=2)
        m = derive_value_bound(instance)
        found = construct_via_gap(
            lambda q: gap_oracle(instance, q), F(1), m, instance.p
        )
        spec = RelationSpec(RelationKind.EPSILON, F(1))
        assert verify_approximation(instance, [s.id for s in found], spec).ok

    @pytest.mark.parametrize(
        "eps, value_bound, p",
        [(F(1), 0, 1), (F(1), 1, 2), (F(1, 2), 1, 3), (F(3), 2, 2), (F(1), 1, 4)],
    )
    def test_issues_exactly_levels_to_the_p_queries(self, eps, value_bound, p):
        # the query limit and the benchmark's budget guard both rely on this count
        steps = ratio_steps_to_reach(F(1 << (2 * value_bound)), half_step_delta(eps)) + 1
        queries = []

        def counting_oracle(query: GapQuery):
            queries.append(query)
            return None

        assert construct_via_gap(counting_oracle, eps, value_bound, p) == []
        assert len(queries) == (steps + 1) ** p
        assert len(set(queries)) == len(queries)

    def test_query_limit_refuses_before_the_first_query(self, monkeypatch):
        def refusing_oracle(query: GapQuery):
            raise AssertionError("no query may be issued over the limit")

        # eps=1/2, M=4: 30 levels, but the count stops at 16, the first with 16**5 > 10**6
        with pytest.raises(QueryLimitExceeded, match=r"^1048576 or more budget queries "
                           r"\(16 or more levels, p=5\) exceed the gap-query limit 1000000$"):
            construct_via_gap(refusing_oracle, F(1, 2), 4, 5)
        # eps=1, M=1: 7 levels, 7**2 = 49 queries; the limit itself is allowed
        monkeypatch.setattr(constructors, "GAP_QUERY_LIMIT", 49)
        assert construct_via_gap(lambda q: None, F(1), 1, 2) == []
        monkeypatch.setattr(constructors, "GAP_QUERY_LIMIT", 48)
        with pytest.raises(QueryLimitExceeded, match=r"^49 or more budget queries \(7 or more levels"):
            construct_via_gap(refusing_oracle, F(1), 1, 2)

    @pytest.mark.parametrize("p, levels", [(2, 1001), (3, 101)])
    def test_a_ladder_of_billions_is_refused_at_the_first_level_over_the_limit(self, p, levels):
        # eps=1/10**9, M=3: the full ladder has about 4 * 10**10 levels; counting
        # stops at the first level count whose p-th power passes 10**6
        def refusing_oracle(query: GapQuery):
            raise AssertionError("no query may be issued over the limit")

        with pytest.raises(QueryLimitExceeded) as info:
            construct_via_gap(refusing_oracle, F(1, 10**9), 3, p)
        assert str(info.value) == (
            f"{levels**p} or more budget queries ({levels} or more levels, p={p}) "
            "exceed the gap-query limit 1000000"
        )
        assert (levels - 1) ** p <= constructors.GAP_QUERY_LIMIT < levels**p

    def test_the_decision_caps_p_and_stays_exact(self, monkeypatch):
        # eps=1/2, M=0: two levels, so the sweep would issue 2**p queries
        def refusing_oracle(query: GapQuery):
            raise AssertionError("no query may be issued over the limit")

        monkeypatch.setattr(constructors, "GAP_QUERY_LIMIT", 49)  # six bits
        for p in range(1, 6):
            assert construct_via_gap(lambda q: None, F(1, 2), 0, p) == []
        with pytest.raises(QueryLimitExceeded, match=r"^64 or more budget queries \(2 or more"):
            construct_via_gap(refusing_oracle, F(1, 2), 0, 6)
        # past the cap the count is written as a power
        with pytest.raises(QueryLimitExceeded, match=r"^2\*\*7 or more budget queries \(2 or more"):
            construct_via_gap(refusing_oracle, F(1, 2), 0, 7)
        monkeypatch.undo()
        p = (10 ** sys.get_int_max_str_digits()).bit_length()  # 2**p would pass str()'s limit
        with pytest.raises(QueryLimitExceeded, match=rf"^2\*\*{p} or more budget queries"):
            construct_via_gap(refusing_oracle, F(1, 2), 0, p)
        with pytest.raises(QueryLimitExceeded) as info:
            construct_via_gap(refusing_oracle, F(1, 2), 0, 10**20)
        assert str(info.value) == (
            f"2**{10**20} or more budget queries (2 or more levels, p={10**20}) "
            "exceed the gap-query limit 1000000"
        )


class TestTheRefusalIsWrittenByPAlone:
    """A refused count is written in digits up to the cap and as 2**p past it, whatever the
    interpreter's int/str digit limit."""

    @pytest.mark.parametrize("limit", [None, 0, 640], ids=["default", "off", "640"])
    @pytest.mark.parametrize("p, queries", [(20, "1048576"), (21, "2**21"), (1000, "2**1000")])
    def test_the_text_depends_on_p_only(self, p, queries, limit):
        default = sys.get_int_max_str_digits()
        try:
            if limit is not None:
                sys.set_int_max_str_digits(limit)
            with pytest.raises(QueryLimitExceeded) as info:
                construct_via_gap(lambda q: None, F(1, 2), 0, p)
        finally:
            sys.set_int_max_str_digits(default)
        assert str(info.value) == (
            f"{queries} or more budget queries (2 or more levels, p={p}) "
            "exceed the gap-query limit 1000000"
        )


class TestGapSweepValidatesOnce:
    @pytest.mark.parametrize("eps, value_bound, p", [(F(1), 1, 2), (F(1, 2), 1, 3), (F(3), 0, 1)])
    def test_post_init_runs_once_per_sweep_and_queries_equal_validated_ones(
        self, eps, value_bound, p, monkeypatch
    ):
        checks = []
        original = GapQuery.__post_init__

        def counting_post_init(query):
            checks.append(query)
            original(query)

        monkeypatch.setattr(GapQuery, "__post_init__", counting_post_init)
        asked = []
        assert construct_via_gap(asked.append, eps, value_bound, p) == []
        assert len(checks) == 1 and len(asked) > 1
        smallest = F(1, 1 << value_bound)
        assert checks[0] == GapQuery(b=(smallest,) * p, delta=half_step_delta(eps))
        monkeypatch.undo()
        for query in asked:
            validated = GapQuery(b=query.b, delta=query.delta)
            assert type(query) is GapQuery
            assert query == validated
            assert hash(query) == hash(validated)
            assert repr(query) == repr(validated)


# Reference gap construction: a recursive sweep over budget prefixes, then a
# greedy cover of the discovered solutions under componentwise "at most".
def reference_construct_via_gap(gap, eps, value_bound, p):
    if p < 1:
        raise ValueError("p must be at least 1")
    if value_bound < 0:
        raise ValueError("value_bound must be nonnegative")
    delta = half_step_delta(eps)
    steps = ratio_steps_to_reach(F(1 << (2 * value_bound)), delta) + 1
    queries = (steps + 1) ** p
    if queries > constructors.GAP_QUERY_LIMIT:
        raise QueryLimitExceeded(
            f"{queries} budget queries ({steps + 1} levels, p={p}) exceed "
            f"the gap-query limit {constructors.GAP_QUERY_LIMIT}"
        )
    floor = F(1, 1 << value_bound)
    levels = [floor * (1 + delta) ** t for t in range(steps + 1)]
    discovered = {}

    def sweep(prefix):
        if len(prefix) == p:
            answer = gap(GapQuery(b=prefix, delta=delta))
            if answer is not None:
                discovered.setdefault(answer.id, answer)
            return
        for level in levels:
            sweep(prefix + (level,))

    sweep(())
    found = list(discovered.values())
    if not found:
        return []
    rows = tuple(
        sum(1 << k for k, y in enumerate(found) if all(a <= b for a, b in zip(x.f, y.f)))
        for x in found
    )
    digraph = DominationDigraph(nodes=tuple(x.id for x in found), rows=rows)
    keep = greedy_cover_dominating_set(digraph)
    return [x for x in found if x.id in keep]


def scripted_gap(pool, script):
    """A gap callable whose k-th answer is pool[script[k % len(script)]] (None past the pool).

    It ignores the budgets, so it can answer with image twins in any order; it
    records the budget vectors it was asked.
    """
    asked = []

    def gap(query):
        pick = script[len(asked) % len(script)]
        asked.append(query.b)
        return pool[pick] if pick < len(pool) else None

    return gap, asked


@st.composite
def twin_pools(draw):
    p = draw(st.integers(min_value=1, max_value=3))
    values = st.sampled_from([F(1, 2), F(1), F(3, 2), F(2)])
    images = draw(st.lists(st.tuples(*[values] * p), min_size=0, max_size=8))
    pool = [Solution(f"x{i}", image) for i, image in enumerate(images)]
    twins = draw(st.lists(st.sampled_from(pool), max_size=4)) if pool else []
    pool += [Solution(f"{s.id}-twin{i}", s.f) for i, s in enumerate(twins)]
    return p, draw(st.permutations(pool))


class TestGapSweepMatchesTheOldOne:
    @settings(max_examples=150, deadline=None)
    @given(
        twin_pools(),
        st.lists(st.integers(min_value=0, max_value=14), min_size=1, max_size=40),
        st.sampled_from([F(1), F(3)]),
        st.integers(min_value=0, max_value=1),
    )
    def test_queries_and_kept_solutions_match_for_any_answers(
        self, pool_p, script, eps, value_bound
    ):
        p, pool = pool_p
        new_gap, new_asked = scripted_gap(pool, script)
        old_gap, old_asked = scripted_gap(pool, script)
        found = construct_via_gap(new_gap, eps, value_bound, p)
        assert found == reference_construct_via_gap(old_gap, eps, value_bound, p)
        assert new_asked == old_asked

    @pytest.mark.parametrize(
        "script, kept",
        [
            ([2, 1, 0, 3], ["early", "other"]),
            ([0, 1, 2, 3], ["late", "other"]),
            ([3, 2, 1, 0], ["other", "early"]),
        ],
    )
    def test_the_first_twin_discovered_is_kept_in_discovery_order(self, script, kept):
        pool = [
            Solution("late", (F(1), F(2))),
            Solution("early", (F(1), F(2))),
            Solution("worse", (F(2), F(2))),
            Solution("other", (F(2), F(1))),
        ]
        found = construct_via_gap(scripted_gap(pool, script)[0], F(1), 0, 2)
        assert [s.id for s in found] == kept
        assert found == reference_construct_via_gap(scripted_gap(pool, script)[0], F(1), 0, 2)
