from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mopareto import constructors, dominance, model, oracles
from mopareto.constructors import verify_approximation
from mopareto.dominance import (
    domination_digraph,
    efficient_set,
    r_dominates,
    weakly_efficient_set,
)
from mopareto.domsets import exact_min_dominating_set
from mopareto.generators import gen_antichain, gen_prop_dominated, gen_random
from mopareto.model import (
    ApproximationSet,
    GapQuery,
    Instance,
    RelationKind,
    RelationSpec,
    Solution,
)
from mopareto.numerics import half_step_delta
from mopareto.oracles import (
    AdversaryPrecisionError,
    adversarial_pair,
    consistent_gap_answer,
    dual_restrict_2approx,
    gap_oracle,
    greedy_biobjective_min,
    valid_gap_answer,
)

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


def scan_gap_oracle(instance, query):
    """The exhaustive scan gap_oracle answered with before it was indexed."""
    if len(query.b) != instance.p:
        raise ValueError("query dimension does not match the instance")
    for sol in instance.solutions:
        if all(v <= bound for v, bound in zip(sol.f, query.b)):
            return sol
    return None


# few distinct values, so columns repeat values and images repeat whole
VALUES = [F(1, 3), F(1, 2), F(1), F(3, 2), F(2), F(3), F(7, 2)]


@st.composite
def instances_with_duplicates(draw):
    p = draw(st.integers(min_value=1, max_value=4))
    vectors = draw(
        st.lists(
            st.tuples(*[st.sampled_from(VALUES)] * p), min_size=1, max_size=12
        )
    )
    repeats = draw(st.lists(st.sampled_from(vectors), max_size=4))
    order = draw(st.permutations(vectors + repeats))
    return Instance(
        p=p,
        solutions=tuple(Solution(f"s{i}", vec) for i, vec in enumerate(order, start=1)),
    )


def budget_component(column):
    """A budget on one objective: a solution value, a value between two of
    them, below or above every value, or an int."""
    distinct = sorted(set(column))
    between = [(a + b) / 2 for a, b in zip(distinct, distinct[1:])]
    return st.one_of(
        st.sampled_from(distinct),
        st.sampled_from(between or distinct),
        st.just(distinct[0] / 2),
        st.just(distinct[-1] + 1),
        st.integers(min_value=1, max_value=4),
    )


def draw_queries(data, instance, count):
    columns = list(zip(*(s.f for s in instance.solutions)))
    budgets = st.tuples(*[budget_component(c) for c in columns])
    return [GapQuery(b=data.draw(budgets), delta=F(1, 2)) for _ in range(count)]


class TestGapOracle:
    def test_no_when_nothing_fits(self):
        two = inst((1, 4), (4, 1))
        query = GapQuery(b=(F(2), F(2)), delta=F(1, 2))
        assert gap_oracle(two, query) is None
        assert valid_gap_answer(two, query, None)

    def test_returns_first_fitting_solution(self):
        query = GapQuery(b=(F(3), F(3)), delta=F(1, 2))
        answer = gap_oracle(STAIRCASE, query)
        assert answer is not None and answer.id == "s2"
        assert valid_gap_answer(STAIRCASE, query, answer)

    def test_dimension_checked(self):
        with pytest.raises(ValueError, match="dimension"):
            gap_oracle(STAIRCASE, GapQuery(b=(F(1),), delta=F(1)))

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.tuples(
            st.fractions(min_value=F(1, 8), max_value=F(8)),
            st.fractions(min_value=F(1, 8), max_value=F(8)),
        ),
        st.fractions(min_value=F(1, 10), max_value=F(2)),
    )
    def test_answers_always_validate(self, seed, budgets, delta):
        instance = gen_random(12, 2, seed=seed)
        query = GapQuery(b=budgets, delta=delta)
        assert valid_gap_answer(instance, query, gap_oracle(instance, query))

    @settings(max_examples=100, deadline=None)
    @given(instances_with_duplicates(), st.data())
    def test_index_matches_the_scan_and_its_cache_does_not_leak(self, instance, data):
        # many queries against one instance, so later ones hit the cache
        queries = draw_queries(data, instance, 25)
        for query in queries * 2:
            expected = scan_gap_oracle(instance, query)
            assert gap_oracle(instance, query) is expected
        # the same points reversed: the forward instance's cache must not answer for them
        reversed_instance = Instance(p=instance.p, solutions=instance.solutions[::-1])
        for query in queries:
            assert gap_oracle(reversed_instance, query) is scan_gap_oracle(reversed_instance, query)

    def test_same_points_reversed_give_the_other_first_answer(self):
        forward = inst((1, 2), (2, 1))
        backward = Instance(p=2, solutions=forward.solutions[::-1])
        query = GapQuery(b=(F(2), 2), delta=F(1, 2))
        assert gap_oracle(forward, query).id == "s1"
        assert gap_oracle(backward, query).id == "s2"
        assert gap_oracle(forward, query).id == "s1"

    def test_int_and_fraction_budgets_answer_like_the_scan(self):
        for b in [(1, 4), (F(1), F(4)), (F(1), 4), (2, F(5, 2)), (F(1, 2), 9), (4, 1)]:
            query = GapQuery(b=b, delta=F(1, 2))
            assert gap_oracle(STAIRCASE, query) is scan_gap_oracle(STAIRCASE, query)
        for b in [(1.0, 4.0), (2, 2.5), (0.5, 9), (Decimal(2), 4), (1, float("inf"))]:
            with pytest.raises(ValueError, match="^all budget components must be an int or a Fraction, got "):
                GapQuery(b=b, delta=F(1, 2))

    def test_querying_leaves_equality_hash_and_repr_unchanged(self):
        queried = inst((1, 4), (2, 3), (3, 2), (4, 1))
        fresh = inst((1, 4), (2, 3), (3, 2), (4, 1))
        before = (hash(queried), repr(queried))
        for b in [(F(3), F(3)), (1, 1), (F(5), F(5))]:
            gap_oracle(queried, GapQuery(b=b, delta=F(1, 2)))
        assert (hash(queried), repr(queried)) == before
        assert queried == fresh and hash(queried) == hash(fresh)
        assert repr(queried) == repr(fresh)

    def test_validator_rejects_wrong_answers(self):
        query = GapQuery(b=(F(2), F(2)), delta=F(1, 2))
        outsider = Solution("s9", (F(1), F(1)))
        assert not valid_gap_answer(STAIRCASE, query, outsider)
        over_budget = STAIRCASE.solution("s4")
        assert not valid_gap_answer(STAIRCASE, query, over_budget)
        # a known id with another image is not the instance's solution
        impostor = Solution("s1", (F(1), F(1)))
        assert not valid_gap_answer(STAIRCASE, query, impostor)
        # a "NO" is wrong when something fits even the shrunken budgets
        roomy = GapQuery(b=(F(4), F(8)), delta=F(1, 2))
        assert not valid_gap_answer(STAIRCASE, roomy, None)


# VALUES plus values whose 14- and 17-bit denominators pass a 12-bit scale limit
MIXED_VALUES = VALUES + [F(40009, 10007), F(99991, 65537)]


@st.composite
def mixed_instances(draw):
    """An instance of up to 12 solutions, possibly empty, with repeated values and images."""
    p = draw(st.integers(min_value=1, max_value=4))
    vectors = draw(st.lists(st.tuples(*[st.sampled_from(MIXED_VALUES)] * p), max_size=12))
    vectors += draw(st.lists(st.sampled_from(vectors), max_size=4)) if vectors else []
    return Instance(p=p, solutions=tuple(Solution(f"s{i}", v) for i, v in enumerate(vectors)))


# above every value in MIXED_VALUES, with a denominator coprime to every scale
ABOVE_EVERY_VALUE = F(10**30 + 1, 7)


def mixed_budget(column):
    """budget_component's budgets, or a Fraction far above every value."""
    exact = budget_component(column) if column else st.fractions(F(1, 4), F(4))
    return st.one_of(exact, st.just(ABOVE_EVERY_VALUE))


class TestGapOracleOnTheIntegerImage:
    """The index compares floor(b * scale) with each scaled column; the references compare b."""

    @settings(max_examples=300, deadline=None)
    @given(mixed_instances(), st.sampled_from([0, 12, None]), st.data())
    def test_answers_validate_and_match_the_scan_under_each_scale_limit(
        self, instance, scale_bits, data
    ):
        # scale_bits: every column falls back (0), some do (12), none do (None)
        columns = list(zip(*(s.f for s in instance.solutions))) or [()] * instance.p
        budgets = st.tuples(*[mixed_budget(c) for c in columns])
        with pytest.MonkeyPatch.context() as mp:
            if scale_bits is not None:
                mp.setattr(model, "_SCALE_BITS", scale_bits)
            instance = Instance(instance.p, instance.solutions)  # no image cached yet
            if scale_bits == 0 and instance.solutions:
                assert all(scale is None for scale, _ in instance._image)
            for _ in range(10):
                query = GapQuery(b=data.draw(budgets), delta=data.draw(st.sampled_from([F(1, 2), F(1, 9)])))
                answer = gap_oracle(instance, query)
                assert answer is scan_gap_oracle(instance, query)
                assert valid_gap_answer(instance, query, answer)

    def test_a_budget_on_a_value_and_one_unit_below_it(self):
        # 1/3 and 2/7 scale by 21: floor(b * 21) decides b = 1/3 (7) and b just below it (6)
        instance = inst((F(1, 3), F(2, 7)), (F(2, 7), F(1, 3)))
        for b, want in [((F(1, 3), F(1, 3)), "s1"), ((F(1, 3) - F(1, 10**30), F(1, 3)), "s2"),
                        ((F(2, 7), F(2, 7)), None), ((F(3, 10), 1), "s2"), ((1, F(3, 10)), "s1")]:
            answer = gap_oracle(instance, GapQuery(b=b, delta=F(1, 2)))
            assert (answer and answer.id) == want, b
        for b in [(0.3, Decimal(1)), (Decimal(1), 0.3), (float("inf"), F(1, 3))]:
            with pytest.raises(ValueError, match="^all budget components must be an int or a Fraction"):
                GapQuery(b=b, delta=F(1, 2))


class TestGapOracleSharesTheDigraphIndex:
    def test_gap_queries_build_no_suffix_masks(self):
        instance = gen_random(50, 3, seed=3)
        for b in [(F(1), F(2), F(4)), (F(8), F(8), F(8)), (F(1, 2), 3, F(5, 2))]:
            query = GapQuery(b=b, delta=F(1, 2))
            assert gap_oracle(instance, query) is scan_gap_oracle(instance, query)
        assert all(not column._suffixes for column in instance._sorted_columns)

    @settings(max_examples=50, deadline=None)
    @given(instances_with_duplicates(), st.data())
    def test_digraph_and_gap_answers_in_either_order(self, instance, data):
        spec = RelationSpec(RelationKind.QUASI_K, F(1, 2), k=1)
        expected = tuple(
            sum(1 << k for k, y in enumerate(instance) if r_dominates(x, y, spec)) for x in instance
        )
        queries = draw_queries(data, instance, 10)
        if data.draw(st.booleans()):
            assert domination_digraph(instance, spec).rows == expected
        for query in queries:
            assert gap_oracle(instance, query) is scan_gap_oracle(instance, query)
        assert domination_digraph(instance, spec).rows == expected


class TestAdversary:
    def test_pair_layout(self):
        pair = adversarial_pair(10)
        assert pair.i1.ids == ("x1",)
        assert pair.i2.ids == ("x1", "x2")
        assert pair.x1.f == (F(11, 10), F(11, 10))
        assert pair.i2.solution("x2").f == (F(1), F(1))

    def test_generous_budgets_return_x1(self):
        pair = adversarial_pair(10)
        answer = consistent_gap_answer(pair, GapQuery(b=(F(2), F(2)), delta=F(1, 10)))
        assert answer is not None and answer.id == "x1"

    def test_tight_budget_answers_no_for_both(self):
        pair = adversarial_pair(10)
        query = GapQuery(b=(F(1), F(1)), delta=F(1, 10))
        assert consistent_gap_answer(pair, query) is None
        assert valid_gap_answer(pair.i1, query, None)
        assert valid_gap_answer(pair.i2, query, None)

    def test_one_component_below_x1_answers_no(self):
        pair = adversarial_pair(10)
        query = GapQuery(b=(F(1), F(3)), delta=F(2, 10))
        assert consistent_gap_answer(pair, query) is None
        assert valid_gap_answer(pair.i2, query, None)

    def test_a_query_of_three_budgets_is_refused(self):
        query = GapQuery(b=(F(2), F(2), F(2)), delta=F(1, 10))
        with pytest.raises(ValueError, match=r"^adversarial queries are biobjective$"):
            consistent_gap_answer(adversarial_pair(10), query)

    def test_excess_precision_rejected(self):
        pair = adversarial_pair(10)
        with pytest.raises(AdversaryPrecisionError, match="adversary regime"):
            consistent_gap_answer(pair, GapQuery(b=(F(2), F(2)), delta=F(1, 11)))


# Reference oracles, as per-query scans: the constrained minimizer with an
# explicit instance-order tie-break, and a budget-relaxed answer found by a
# second scan that takes, among the solutions componentwise at most that
# minimizer, the lex-min image.  The library reaches their answers only
# through the biobjective sweeps.
def _reference_bounded(sol, objective, bounds):
    others = [v for i, v in enumerate(sol.f, start=1) if i != objective]
    return all(v <= b for v, b in zip(others, bounds))


def _reference_check_constrained_args(instance, objective, bounds):
    if not 1 <= objective <= instance.p:
        raise ValueError(f"objective index {objective} out of range 1..{instance.p}")
    if len(bounds) != instance.p - 1:
        raise ValueError(f"expected {instance.p - 1} bounds, got {len(bounds)}")
    if any(b <= 0 for b in bounds):
        raise ValueError("bounds must be positive")


def reference_constrained_oracle(instance, objective, bounds):
    _reference_check_constrained_args(instance, objective, bounds)
    feasible = [s for s in instance.solutions if _reference_bounded(s, objective, bounds)]
    if not feasible:
        return None
    return min(
        feasible,
        key=lambda s: (s.f[objective - 1], s.f, instance.position(s.id)),
    )


def reference_dual_restrict_oracle(instance, objective, bounds, delta):
    if delta <= 0:
        raise ValueError("delta must be positive")
    anchor = reference_constrained_oracle(instance, objective, bounds)
    if anchor is None:
        return None
    candidates = [
        s
        for s in instance.solutions
        if all(a <= b for a, b in zip(s.f, anchor.f))
    ]
    return min(candidates, key=lambda s: (s.f, instance.position(s.id)))


def brute_force_constrained(instance, objective, bounds):
    feasible = []
    for s in instance.solutions:
        others = [v for i, v in enumerate(s.f, start=1) if i != objective]
        if all(v <= b for v, b in zip(others, bounds)):
            feasible.append(s)
    if not feasible:
        return None
    return min(s.f[objective - 1] for s in feasible)


class TestConstrainedOracle:
    def test_scan_example(self):
        answer = reference_constrained_oracle(STAIRCASE, objective=2, bounds=[F(2)])
        assert answer is not None and answer.f == (F(2), F(3))

    def test_infeasible(self):
        assert reference_constrained_oracle(STAIRCASE, objective=1, bounds=[F(1, 2)]) is None

    def test_bounds_length_checked(self):
        with pytest.raises(ValueError, match="bounds"):
            reference_constrained_oracle(STAIRCASE, objective=1, bounds=[F(1), F(1)])

    @pytest.mark.parametrize(
        "objective, bounds, message",
        [
            (0, [F(1)], "objective index 0 out of range 1..2"),
            (3, [F(1)], "objective index 3 out of range 1..2"),
            (1, [F(1), F(1)], "expected 1 bounds, got 2"),
            (1, [], "expected 1 bounds, got 0"),
            (1, [F(0)], "bounds must be positive"),
            (2, [F(-1)], "bounds must be positive"),
        ],
    )
    def test_argument_errors(self, objective, bounds, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            reference_constrained_oracle(STAIRCASE, objective, bounds)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=3),
        st.tuples(
            st.fractions(min_value=F(1, 8), max_value=F(8)),
            st.fractions(min_value=F(1, 8), max_value=F(8)),
        ),
    )
    def test_optimum_matches_brute_force_and_is_weakly_efficient(
        self, seed, objective, bounds
    ):
        instance = gen_random(15, 3, seed=seed)
        answer = reference_constrained_oracle(instance, objective, list(bounds))
        opt = brute_force_constrained(instance, objective, list(bounds))
        if opt is None:
            assert answer is None
        else:
            assert answer is not None
            assert answer.f[objective - 1] == opt
            assert answer.id in weakly_efficient_set(instance)


class TestDualRestrictOracle:
    def test_matches_constrained_when_optimum_efficient(self):
        answer = reference_dual_restrict_oracle(STAIRCASE, 2, bounds=[F(2)], delta=F(1, 10))
        assert answer == reference_constrained_oracle(STAIRCASE, 2, bounds=[F(2)])

    def test_near_optimal_decoy_is_not_taken(self):
        tricky = inst((1, 4), (3, 1), ("31/10", "9/10"))
        answer = reference_dual_restrict_oracle(tricky, objective=1, bounds=[F(1)], delta=F(1, 10))
        assert answer is not None and answer.f == (F(3), F(1))

    def test_twins_answer_with_the_first_in_instance_order(self):
        twins = inst((2, 1), (1, 3), (2, 1), (1, 3))
        assert reference_dual_restrict_oracle(twins, 1, [F(3)], F(1, 4)).id == "s2"
        assert reference_dual_restrict_oracle(twins, 2, [F(2)], F(1, 4)).id == "s1"

    @pytest.mark.parametrize("objective, bounds", [(1, [F(1)]), (0, [])])
    @pytest.mark.parametrize("delta", [F(0), F(-1, 2)])
    def test_delta_is_checked_first(self, objective, bounds, delta):
        with pytest.raises(ValueError, match="^delta must be positive$"):
            reference_dual_restrict_oracle(STAIRCASE, objective, bounds, delta)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.fractions(min_value=F(1, 8), max_value=F(8)),
        st.fractions(min_value=F(1, 10), max_value=F(1)),
    )
    def test_contract_on_random_instances(self, seed, bound, delta):
        instance = gen_random(15, 2, seed=seed)
        answer = reference_dual_restrict_oracle(instance, objective=1, bounds=[bound], delta=delta)
        opt = brute_force_constrained(instance, 1, [bound])
        if opt is None:
            assert answer is None
        else:
            assert answer is not None
            assert answer.f[0] <= opt
            assert answer.f[1] <= (1 + delta) * bound
            assert answer.id in efficient_set(instance)


def brute_force_min_cover(instance, spec):
    ids = list(instance.ids)
    for size in range(1, len(ids) + 1):
        for subset in combinations(ids, size):
            if verify_approximation(instance, list(subset), spec).ok:
                return size
    raise AssertionError("the full set always covers")


class TestBiobjectiveGreedy:
    def test_staircase_minimum_two(self):
        result = greedy_biobjective_min(STAIRCASE, F(1))
        assert len(result.members) == 2
        assert brute_force_min_cover(
            STAIRCASE, RelationSpec(RelationKind.EPSILON, F(1))
        ) == 2

    def test_single_solution(self):
        one = inst((2, 5))
        assert greedy_biobjective_min(one, F(1)).members == ("s1",)

    def test_dominated_family_minimum_two(self):
        result = greedy_biobjective_min(gen_prop_dominated(F(1)), F(1))
        assert len(result.members) == 2

    def test_requires_biobjective(self):
        with pytest.raises(ValueError, match="biobjective"):
            greedy_biobjective_min(gen_random(4, 3, seed=0), F(1))

    @pytest.mark.parametrize("eps", [F(-1, 2), F(0)])
    def test_rejects_nonpositive_eps_before_sweeping(self, eps):
        with pytest.raises(ValueError, match="eps must be positive"):
            greedy_biobjective_min(inst((1, 1)), eps)


class TestDualRestrictSweep:
    def test_single_solution(self):
        one = inst((2, 5))
        assert dual_restrict_2approx(one, F(1)).members == ("s1",)

    @pytest.mark.parametrize("eps", [F(-1, 2), F(0)])
    def test_rejects_nonpositive_eps(self, eps):
        with pytest.raises(ValueError, match="eps must be positive"):
            dual_restrict_2approx(inst((1, 1)), eps)

    def test_staircase_within_factor_two(self):
        result = dual_restrict_2approx(STAIRCASE, F(1))
        assert len(result.members) <= 4


class TestBothSweepsAgainstTheExactMinimum:
    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([F(1, 2), F(1), F(3)]),
    )
    def test_greedy_is_exactly_minimum_and_dual_restrict_within_twice(self, seed, eps):
        instance = gen_random(12, 2, seed=seed)
        graph = domination_digraph(instance, RelationSpec(RelationKind.EPSILON, eps))
        minimum = len(exact_min_dominating_set(graph))
        greedy = greedy_biobjective_min(instance, eps).members
        assert len(greedy) == minimum and set(greedy) <= weakly_efficient_set(instance)
        dual = dual_restrict_2approx(instance, eps).members
        assert len(dual) <= 2 * minimum and set(dual) <= efficient_set(instance)


SWEEP_EPS = [F(1, 100), F(1, 8), F(1), F(3)]


def biobjective(images):
    return Instance(
        p=2,
        solutions=tuple(
            Solution(f"s{i}", (F(a), F(b))) for i, (a, b) in enumerate(images)
        ),
    )


# The two sweep loops as they were written before they shared one, kept as
# references for the merged sweep.
def reference_greedy_biobjective_min(instance, eps):
    eps_spec = RelationSpec(RelationKind.EPSILON, eps)
    uncovered = list(instance.solutions)
    members: list[str] = []
    while uncovered:
        t = min(s.f[0] for s in uncovered)
        pick = reference_constrained_oracle(instance, objective=2, bounds=[(1 + eps) * t])
        assert pick is not None  # the attainer of t is feasible
        members.append(pick.id)
        uncovered = [s for s in uncovered if not r_dominates(pick, s, eps_spec)]
    result = verify_approximation(
        instance, members, RelationSpec(RelationKind.QUASI_K, eps, k=1)
    )
    assert result.ok and result.approximation is not None
    return result.approximation


def reference_dual_restrict_2approx(instance, eps):
    delta = half_step_delta(eps)
    eps_spec = RelationSpec(RelationKind.EPSILON, eps)
    uncovered = list(instance.solutions)
    members: list[str] = []
    while uncovered:
        t = min(s.f[0] for s in uncovered)
        pick = reference_dual_restrict_oracle(
            instance, objective=2, bounds=[(1 + delta) * t], delta=delta
        )
        assert pick is not None
        members.append(pick.id)
        uncovered = [s for s in uncovered if not r_dominates(pick, s, eps_spec)]
    result = verify_approximation(
        instance, members, RelationSpec(RelationKind.QUASI_K, eps, k=1)
    )
    assert result.ok and result.approximation is not None
    return result.approximation


class TestMergedSweepMatchesTheOldLoops:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=40),
        st.sampled_from([F(1, 10), F(1, 2), F(1), F(3)]),
    )
    def test_random_biobjective_instances(self, seed, n, eps):
        instance = gen_random(n, 2, seed=seed, value_range=3)
        assert greedy_biobjective_min(instance, eps) == reference_greedy_biobjective_min(
            instance, eps
        )
        assert dual_restrict_2approx(instance, eps) == reference_dual_restrict_2approx(
            instance, eps
        )

    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    @pytest.mark.parametrize("eps", [F(1, 5), F(1), F(7, 2)])
    def test_antichains(self, n, eps):
        instance = gen_antichain(n)
        greedy = greedy_biobjective_min(instance, eps)
        assert greedy.members == reference_greedy_biobjective_min(instance, eps).members
        dual = dual_restrict_2approx(instance, eps)
        assert dual.members == reference_dual_restrict_2approx(instance, eps).members

    def test_each_keeps_its_own_biobjective_message(self):
        three = gen_random(4, 3, seed=0)
        with pytest.raises(ValueError, match="^the greedy cover works on biobjective"):
            greedy_biobjective_min(three, F(1))
        with pytest.raises(ValueError, match="^the relaxed greedy cover works on biobjective"):
            dual_restrict_2approx(three, F(1))

    @staticmethod
    def assert_both_match(instance, eps):
        assert greedy_biobjective_min(instance, eps) == reference_greedy_biobjective_min(
            instance, eps
        )
        assert dual_restrict_2approx(instance, eps) == reference_dual_restrict_2approx(
            instance, eps
        )

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(*[st.sampled_from(VALUES)] * 2), max_size=14),
        st.sampled_from(SWEEP_EPS),
    )
    def test_image_twins_and_ties_in_either_objective(self, images, eps):
        # seven values: images repeat whole and both columns tie often
        self.assert_both_match(biobjective(images), eps)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.sampled_from(SWEEP_EPS))
    def test_values_on_and_one_step_off_the_sweep_boundaries(self, data, eps):
        # products of powers of 1+eps and 1+delta put values exactly on each
        # other's bounds ratio * t and f2 / (1+eps); a 10**-9 nudge steps off them
        steps = [1 + eps, 1 + half_step_delta(eps)]
        value = st.builds(
            lambda a, b, nudge: steps[0] ** a * steps[1] ** b * (1 + nudge * F(1, 10**9)),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
            st.sampled_from([-1, 0, 0, 1]),
        )
        images = data.draw(st.lists(st.tuples(value, value), max_size=14))
        self.assert_both_match(biobjective(images), eps)

    @pytest.mark.parametrize(
        "images",
        [
            [(1, 2), (1, 2), (1, 3), (2, 2)],  # twins first, then ties in f1 and in f2
            [(2, 2), (1, 3), (1, 2), (1, 2)],
            [(1, 4), (2, 4), (2, 1), (4, 1), (2, 2)],
        ],
    )
    @pytest.mark.parametrize("eps", SWEEP_EPS)
    def test_scripted_twins_and_ties(self, images, eps):
        self.assert_both_match(biobjective(images), eps)

    @pytest.mark.parametrize("eps", SWEEP_EPS)
    def test_boundary_chain(self, eps):
        # each f1 exactly (1+eps) times the last, each f2 exactly 1/(1+eps) of it,
        # with twins one step either side of every point
        images = []
        for i in range(6):
            f1, f2 = (1 + eps) ** i, (1 + eps) ** (6 - i)
            images += [(f1, f2), (f1 * (1 + F(1, 10**9)), f2), (f1, f2 * (1 - F(1, 10**9)))]
        self.assert_both_match(biobjective(images), eps)
        self.assert_both_match(biobjective(images[::-1]), eps)

    @pytest.mark.parametrize("eps", SWEEP_EPS)
    def test_empty_instance(self, eps):
        empty = Instance(p=2, solutions=())
        self.assert_both_match(empty, eps)
        assert greedy_biobjective_min(empty, eps).members == ()
        assert dual_restrict_2approx(empty, eps).certificate == ()

    @pytest.mark.parametrize("n", [50, 200])
    @pytest.mark.parametrize("eps", SWEEP_EPS)
    def test_random_and_shuffled_antichains_up_to_200(self, n, eps):
        self.assert_both_match(gen_random(n, 2, seed=n, value_range=5), eps)
        points = list(gen_antichain(n).solutions)
        Random(n).shuffle(points)
        self.assert_both_match(Instance(p=2, solutions=tuple(points)), eps)


class TestSweepsOnTheIntegerImage:
    """The sweeps bisect each image column on its own scale; the references compare Fractions."""

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from([0, 12, None]), st.sampled_from(SWEEP_EPS))
    def test_both_sweeps_match_the_references_under_each_scale_limit(self, data, scale_bits, eps):
        # scale_bits: every column falls back (0), some do (12), none do (None);
        # values on each other's bounds, a 10**-9 nudge off them, or with 14- and 17-bit
        # denominators
        on_bound = st.builds(
            lambda a, nudge: (1 + eps) ** a * (1 + nudge * F(1, 10**9)),
            st.integers(min_value=0, max_value=3),
            st.sampled_from([-1, 0, 0, 1]),
        )
        value = st.one_of(st.sampled_from(MIXED_VALUES), on_bound)
        images = data.draw(st.lists(st.tuples(value, value), max_size=14))
        with pytest.MonkeyPatch.context() as mp:
            if scale_bits is not None:
                mp.setattr(model, "_SCALE_BITS", scale_bits)
            instance = biobjective(images)  # built inside the patch: the image is cached
            if scale_bits == 0 and images:
                assert all(scale is None for scale, _ in instance._image)
            TestMergedSweepMatchesTheOldLoops.assert_both_match(instance, eps)

    def test_a_fallback_column_beside_a_scaled_one(self):
        # f1 has coprime 17-bit denominators and falls back at 12 bits; f2 scales by 6
        images = [(F(99991, 65537), F(1, 2)), (F(40009, 65539), F(1, 3)), (F(3), F(1, 6))]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "_SCALE_BITS", 12)
            instance = biobjective(images)
            assert [scale for scale, _ in instance._image] == [None, 6]
            for eps in SWEEP_EPS:
                TestMergedSweepMatchesTheOldLoops.assert_both_match(instance, eps)


class TestIntParametersStayExact:
    """An int eps, budget or delta is admitted as it is; no int / int division makes a float."""

    def test_an_int_eps_sweeps_like_its_fraction(self):
        # b is uncovered after a: 2*10**20 + 2 halved is 10**20 + 1, which a float rounds to 10**20
        instance = biobjective([(F(1), F(2 * 10**20 + 2)), (F(3), F(10**20))])
        assert greedy_biobjective_min(instance, 1).members == ("s0", "s1")
        for sweep in (greedy_biobjective_min, dual_restrict_2approx):
            assert sweep(instance, 1) == sweep(instance, F(1))

    def test_int_budgets_and_delta_shrink_exactly(self):
        # (3*10**20 - 1) / 3 lies just below 10**20, and a float rounds it onto 10**20
        instance = inst((10**20,))
        assert valid_gap_answer(instance, GapQuery(b=(3 * 10**20 - 1,), delta=2), None)
        assert not valid_gap_answer(instance, GapQuery(b=(3 * 10**20,), delta=2), None)


class TestSweepsCallNoPerPickOracle:
    @pytest.mark.parametrize("sweep", [greedy_biobjective_min, dual_restrict_2approx])
    def test_no_oracle_scan_and_no_dominance_check_outside_the_verifier(
        self, sweep, monkeypatch
    ):
        instance = gen_random(60, 2, seed=3)
        eps = F(1, 8)
        expected = sweep(Instance(instance.p, instance.solutions), eps)
        verifier_calls = Counter()
        original = dominance.r_dominates
        verified = []

        def counting_r_dominates(x, y, spec):
            verifier_calls[spec] += 1
            return original(x, y, spec)

        def counting_verify(instance, members, spec):
            verified.append(spec)
            return verify_approximation(instance, members, spec)

        def refused(*args, **kwargs):
            raise AssertionError("the sweep must not check dominance itself")

        monkeypatch.setattr(oracles, "r_dominates", refused, raising=False)
        monkeypatch.setattr(dominance, "r_dominates", counting_r_dominates)
        monkeypatch.setattr(constructors, "r_dominates", counting_r_dominates)
        monkeypatch.setattr(constructors, "verify_approximation", counting_verify)
        assert "_sorted_columns" not in vars(instance)
        assert sweep(instance, eps) == expected
        # the sweep bisects the instance's cached sorted columns, which hold no
        # suffix masks (the digraph's) and no budget masks (the gap oracle's)
        columns = vars(instance)["_sorted_columns"]
        assert all(not column._suffixes and not column._masks for column in columns)
        quasi1 = RelationSpec(RelationKind.QUASI_K, eps, k=1)
        assert verify_approximation(instance, expected.members, quasi1).ok
        # the sweep's only dominance check is its final verification, under
        # quasi-1, which compares column-scaled values and calls no r_dominates
        assert verified == [quasi1] and not verifier_calls


class TestAnInstanceWithoutSolutionsIsDecidedByItsLength:
    """An empty instance is answered before its sorted-column index is built."""

    @pytest.mark.parametrize("cover", [greedy_biobjective_min, dual_restrict_2approx])
    def test_the_sweeps_certify_an_empty_set(self, cover):
        empty = Instance(p=2, solutions=())
        aset = cover(empty, F(1, 2))
        assert aset == ApproximationSet(RelationSpec(RelationKind.QUASI_K, F(1, 2), k=1), ())
        assert "_sorted_columns" not in vars(empty)

    @pytest.mark.parametrize("cover", [greedy_biobjective_min, dual_restrict_2approx])
    @pytest.mark.parametrize("eps", [0, F(0), F(-1, 2), 0.5, None], ids=repr)
    def test_the_sweeps_still_refuse_a_bad_eps_first(self, cover, eps):
        with pytest.raises(ValueError, match="^eps must be "):
            cover(Instance(p=2, solutions=()), eps)

    def test_the_gap_oracle_answers_no(self):
        empty = Instance(p=2, solutions=())
        query = GapQuery(b=(F(1), F(1)), delta=F(1))
        assert gap_oracle(empty, query) is None
        assert valid_gap_answer(empty, query, None)
        assert "_sorted_columns" not in vars(empty)
        with pytest.raises(ValueError, match="^query dimension does not match the instance$"):
            gap_oracle(empty, GapQuery(b=(F(1),), delta=F(1)))
