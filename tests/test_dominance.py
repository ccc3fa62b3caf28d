from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mopareto.dominance import (
    dominates,
    domination_digraph,
    efficient_set,
    exact_components,
    r_dominates,
    strictly_dominates,
    values_r_dominate,
    weakly_efficient_set,
)
from mopareto.generators import gen_prop_dominated, gen_prop_one_exact, gen_quasi2_gap
from mopareto.model import Instance, RelationKind, RelationSpec, Solution


def sol(sid, *values):
    return Solution(sid, tuple(Fraction(v) for v in values))


def inst(*vectors):
    return Instance(
        p=len(vectors[0]),
        solutions=tuple(
            Solution(f"s{i}", tuple(Fraction(v) for v in vec))
            for i, vec in enumerate(vectors, start=1)
        ),
    )


# The pairwise filters, kept as references for the presorted implementations.
def reference_efficient_set(instance: Instance) -> set[str]:
    return {
        x.id
        for x in instance.solutions
        if not any(dominates(y, x) for y in instance.solutions if y.id != x.id)
    }


def reference_weakly_efficient_set(instance: Instance) -> set[str]:
    return {
        x.id
        for x in instance.solutions
        if not any(strictly_dominates(y, x) for y in instance.solutions if y.id != x.id)
    }


ALL_KINDS = [
    RelationSpec(RelationKind.EPSILON, Fraction(1, 2)),
    RelationSpec(RelationKind.ONE_EXACT, Fraction(1, 2)),
    RelationSpec(RelationKind.TWO_EXACT, Fraction(1, 2)),
    RelationSpec(RelationKind.QUASI_K, Fraction(1, 2), k=2),
    RelationSpec(RelationKind.ONE_EXACT_QUASI_K, Fraction(1, 2), k=2),
]

small_fractions = st.fractions(min_value=Fraction(1, 8), max_value=Fraction(8))


def vectors(p):
    return st.tuples(*([small_fractions] * p))


class TestRelationDefinitions:
    @pytest.mark.parametrize("spec", ALL_KINDS)
    def test_reflexive(self, spec):
        x = sol("x", 1, "3/2", "5/7")
        assert r_dominates(x, x, spec)

    def test_quasi_two_mixed_exact_components(self):
        spec = RelationSpec(RelationKind.QUASI_K, Fraction(1, 2), k=2)
        x = sol("x", 1, 2, 3)
        y = sol("y", 1, 2, "11/5")
        assert r_dominates(x, y, spec)

    def test_one_exact_on_dominated_family(self):
        # with eps = 1: (3, 2) covers (4, 1) exactly in the first component
        inst6 = gen_prop_dominated(Fraction(1))
        spec = RelationSpec(RelationKind.ONE_EXACT, Fraction(1))
        assert r_dominates(inst6.solution("x6"), inst6.solution("x4"), spec)

    def test_epsilon_is_componentwise_slack(self):
        spec = RelationSpec(RelationKind.EPSILON, Fraction(1))
        assert values_r_dominate((Fraction(2),), (Fraction(1),), spec)
        assert not values_r_dominate((Fraction(2), Fraction(5)), (Fraction(1), Fraction(2)), spec)

    def test_quasi_k_needs_enough_exact_components(self):
        spec = RelationSpec(RelationKind.QUASI_K, Fraction(10), k=2)
        x = sol("x", 2, 2, 1)
        y = sol("y", 1, 1, 9)
        assert not r_dominates(x, y, spec)  # only one exact component

    def test_one_exact_quasi_k_requires_first_exact(self):
        spec = RelationSpec(RelationKind.ONE_EXACT_QUASI_K, Fraction(1), k=2)
        x = sol("x", 2, 1, 2)
        y = sol("y", 1, 1, 3)
        # x -> y has two exact components but misses exactness in the first
        assert not r_dominates(x, y, spec)
        assert r_dominates(y, x, spec)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension"):
            r_dominates(sol("x", 1), sol("y", 1, 2), ALL_KINDS[0])

    def test_k_beyond_p_raises(self):
        spec = RelationSpec(RelationKind.QUASI_K, Fraction(1), k=3)
        with pytest.raises(ValueError, match="k=3"):
            r_dominates(sol("x", 1, 2), sol("y", 1, 2), spec)


class TestClassicalDominance:
    def test_strict(self):
        assert strictly_dominates(sol("a", 1, 1), sol("b", 2, 2))

    def test_weak_but_not_strict(self):
        assert dominates(sol("a", 1, 2), sol("b", 1, 3))
        assert not strictly_dominates(sol("a", 1, 2), sol("b", 1, 3))

    def test_incomparable(self):
        a, b = sol("a", 1, 2), sol("b", 2, 1)
        assert not dominates(a, b) and not dominates(b, a)

    def test_equal_images_do_not_dominate(self):
        a, b = sol("a", 1, 2), sol("b", 1, 2)
        assert not dominates(a, b)

    def test_exact_components_are_one_based(self):
        assert exact_components(sol("a", 1, 5, 3), sol("b", 2, 4, 3)) == (1, 3)


class TestEfficientSets:
    def test_hand_check(self):
        i = inst((1, 4), (2, 3), (2, 5))
        assert efficient_set(i) == {"s1", "s2"}
        assert weakly_efficient_set(i) == {"s1", "s2"}

    def test_antichain_all_efficient(self):
        i = inst(*[(j, 8 - j) for j in range(1, 8)])
        assert efficient_set(i) == {f"s{j}" for j in range(1, 8)}

    def test_one_exact_family_strict_domination(self):
        # xbar1 strictly dominates x1 when delta = 1/10, n = 1
        family = gen_prop_one_exact(Fraction(1, 10), 1)
        assert strictly_dominates(family.solution("xbar1"), family.solution("x1"))
        assert "x1" not in weakly_efficient_set(family)

    def test_duplicate_images_are_efficient_but_not_weakly(self):
        i = inst((1, 1), (1, 1), (2, 2))
        assert efficient_set(i) == {"s1", "s2"}
        assert weakly_efficient_set(i) == {"s1", "s2"}

    def test_efficient_subset_of_weakly_efficient(self):
        i = inst((1, 4), (1, 5), (3, 3), (4, 4))
        assert efficient_set(i) <= weakly_efficient_set(i)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda p: st.lists(
                st.tuples(*[st.integers(min_value=1, max_value=4)] * p), min_size=1, max_size=40
            )
        )
    )
    def test_match_pairwise_references_with_duplicate_images(self, vectors):
        i = inst(*vectors)
        assert efficient_set(i) == reference_efficient_set(i)
        assert weakly_efficient_set(i) == reference_weakly_efficient_set(i)


class TestDigraph:
    def test_single_solution_self_loop(self):
        i = inst((1, 2))
        g = domination_digraph(i, RelationSpec(RelationKind.EPSILON, Fraction(1)))
        assert g.nodes == ("s1",)
        assert g.out["s1"] == frozenset({"s1"})

    def test_quasi2_gap_has_self_loops_only_under_quasi2(self):
        i = gen_quasi2_gap(Fraction(1), 2)
        g = domination_digraph(i, RelationSpec(RelationKind.QUASI_K, Fraction(1), k=2))
        assert all(g.out[u] == frozenset({u}) for u in g.nodes)

    def test_quasi2_gap_top_point_covers_all_under_epsilon(self):
        i = gen_quasi2_gap(Fraction(1), 2)
        g = domination_digraph(i, RelationSpec(RelationKind.EPSILON, Fraction(1)))
        assert g.out["x0"] == frozenset(g.nodes)


def enumeration_quasi_k(fx, fy, eps, k):
    """Independent oracle: exists a k-subset exact, everything else within 1+eps."""
    p = len(fx)
    for subset in combinations(range(p), k):
        if all(fx[i] <= fy[i] for i in subset) and all(
            fx[i] <= (1 + eps) * fy[i] for i in range(p) if i not in subset
        ):
            return True
    return False


class TestProperties:
    @settings(max_examples=300)
    @given(
        st.integers(min_value=1, max_value=5).flatmap(
            lambda p: st.tuples(
                vectors(p),
                vectors(p),
                st.integers(min_value=1, max_value=p),
                st.fractions(min_value=Fraction(1, 10), max_value=Fraction(3)),
            )
        )
    )
    def test_quasi_k_counting_equals_subset_enumeration(self, case):
        fx, fy, k, eps = case
        spec = RelationSpec(RelationKind.QUASI_K, eps, k=k)
        assert values_r_dominate(fx, fy, spec) == enumeration_quasi_k(fx, fy, eps, k)

    @given(vectors(3), vectors(3))
    def test_monotonicity(self, fx, fy):
        if all(a <= b for a, b in zip(fx, fy)):
            for spec in ALL_KINDS:
                assert values_r_dominate(fx, fy, spec)

    @given(vectors(4), vectors(4), st.fractions(min_value=Fraction(1, 10), max_value=Fraction(3)))
    def test_nesting(self, fx, fy, eps):
        def holds(kind, k=None):
            return values_r_dominate(fx, fy, RelationSpec(kind, eps, k=k))

        if holds(RelationKind.TWO_EXACT):
            assert holds(RelationKind.ONE_EXACT)
        if holds(RelationKind.ONE_EXACT):
            assert holds(RelationKind.EPSILON)
        if holds(RelationKind.ONE_EXACT_QUASI_K, k=2):
            assert holds(RelationKind.QUASI_K, k=2)
        if holds(RelationKind.QUASI_K, k=2):
            assert holds(RelationKind.QUASI_K, k=1)
            assert holds(RelationKind.EPSILON)
