import random
from fractions import Fraction
from functools import partial
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mopareto.dominance import (
    DominationDigraph,
    _check_dims,
    _front,
    _strictly_below,
    _weakly_below,
    domination_digraph,
    efficient_set,
    exact_components,
    r_dominates,
    values_r_dominate,
    weakly_efficient_set,
)
from mopareto import constructors, dominance, model
from mopareto.generators import (
    gen_antichain,
    gen_duplicated,
    gen_prop_dominated,
    gen_prop_one_exact,
    gen_quasi2_gap,
    gen_random,
)
from mopareto.grid import bucket, filter_weakly_nondominated_cells
from mopareto.model import Instance, RelationKind, RelationSpec, Solution, derive_value_bound
from mopareto.oracles import gap_oracle


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


def dominates(x: Solution, y: Solution) -> bool:
    """Classical dominance: at least as good everywhere and strictly better somewhere."""
    _check_dims(x.f, y.f)
    return all(a <= b for a, b in zip(x.f, y.f)) and any(a < b for a, b in zip(x.f, y.f))


def strictly_dominates(x: Solution, y: Solution) -> bool:
    """Strictly better in every objective."""
    _check_dims(x.f, y.f)
    return all(a < b for a, b in zip(x.f, y.f))


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
        assert g.rows == (0b1,)

    def test_quasi2_gap_has_self_loops_only_under_quasi2(self):
        i = gen_quasi2_gap(Fraction(1), 2)
        g = domination_digraph(i, RelationSpec(RelationKind.QUASI_K, Fraction(1), k=2))
        assert g.rows == tuple(1 << i for i in range(len(g.nodes)))

    def test_quasi2_gap_top_point_covers_all_under_epsilon(self):
        i = gen_quasi2_gap(Fraction(1), 2)
        g = domination_digraph(i, RelationSpec(RelationKind.EPSILON, Fraction(1)))
        assert g.rows[g.nodes.index("x0")] == (1 << len(g.nodes)) - 1


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


# The five-branch relation definition, kept as the reference for the rule table.
def reference_values_r_dominate(fx, fy, spec):
    _check_dims(fx, fy)
    p = len(fx)
    slack = 1 + spec.eps
    kind = spec.kind
    if kind is RelationKind.EPSILON:
        return all(a <= slack * b for a, b in zip(fx, fy))
    if kind is RelationKind.ONE_EXACT:
        return fx[0] <= fy[0] and all(a <= slack * b for a, b in zip(fx[1:], fy[1:]))
    if kind is RelationKind.TWO_EXACT:
        if p < 2:
            raise ValueError("two-exact dominance needs at least two objectives")
        return (
            fx[0] <= fy[0]
            and fx[1] <= fy[1]
            and all(a <= slack * b for a, b in zip(fx[2:], fy[2:]))
        )
    k = spec.k
    assert k is not None
    if k > p:
        raise ValueError(f"k={k} exceeds the number of objectives p={p}")
    if not all(a <= slack * b for a, b in zip(fx, fy)):
        return False
    exact = sum(1 for a, b in zip(fx, fy) if a <= b)
    if kind is RelationKind.QUASI_K:
        return exact >= k
    return exact >= k and fx[0] <= fy[0]


def _outcome(relation, fx, fy, spec):
    try:
        return relation(fx, fy, spec)
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def boundary_cases(draw):
    """A relation spec and a vector pair whose components sit on, just inside or
    just outside the exact boundary fy[i] and the 1+eps boundary (1+eps)*fy[i]."""
    p = draw(st.integers(min_value=1, max_value=5))
    eps = draw(st.sampled_from([Fraction(1, 7), Fraction(1, 2), Fraction(1), Fraction(5, 3)]))
    kind = draw(st.sampled_from(list(RelationKind)))
    k = draw(st.integers(min_value=1, max_value=p + 1)) if kind in (
        RelationKind.QUASI_K, RelationKind.ONE_EXACT_QUASI_K
    ) else None
    fy = [draw(st.fractions(min_value=Fraction(1, 8), max_value=Fraction(8), max_denominator=12))
          for _ in range(p)]
    nudge = Fraction(1, draw(st.sampled_from([10**3, 10**9])))
    fx = []
    for b in fy:
        edge = draw(st.sampled_from([b, (1 + eps) * b]))
        fx.append(edge + draw(st.sampled_from([-nudge, 0, nudge])) * b)
    return RelationSpec(kind, eps, k), tuple(fx), tuple(fy)


class TestRuleTableMatchesTheFiveBranchDefinition:
    @settings(max_examples=400, deadline=None)
    @given(boundary_cases())
    def test_same_answers_and_errors(self, case):
        spec, fx, fy = case
        assert _outcome(values_r_dominate, fx, fy, spec) == _outcome(
            reference_values_r_dominate, fx, fy, spec
        )

    @pytest.mark.parametrize("p", range(1, 6))
    def test_every_kind_and_k_on_the_boundaries(self, p):
        eps = Fraction(1, 2)
        specs = [RelationSpec(kind, eps) for kind in list(RelationKind)[:3]] + [
            RelationSpec(kind, eps, k)
            for kind in (RelationKind.QUASI_K, RelationKind.ONE_EXACT_QUASI_K)
            for k in range(1, p + 2)
        ]
        # every component at one of: better, exact tie, within slack, slack tie, beyond
        grades = [Fraction(1, 2), Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2)]
        fy = tuple(Fraction(i + 2, 3) for i in range(p))
        for spec in specs:
            for choice in product(grades, repeat=p):
                fx = tuple(g * b for g, b in zip(choice, fy))
                assert _outcome(values_r_dominate, fx, fy, spec) == _outcome(
                    reference_values_r_dominate, fx, fy, spec
                ), (spec, choice)

    def test_errors_keep_their_messages(self):
        two = RelationSpec(RelationKind.TWO_EXACT, Fraction(1))
        with pytest.raises(ValueError, match="^two-exact dominance needs at least two objectives$"):
            values_r_dominate((Fraction(1),), (Fraction(1),), two)
        quasi = RelationSpec(RelationKind.ONE_EXACT_QUASI_K, Fraction(1), k=3)
        with pytest.raises(ValueError, match=r"^k=3 exceeds the number of objectives p=2$"):
            values_r_dominate((Fraction(1),) * 2, (Fraction(1),) * 2, quasi)


# The pairwise builder, kept as the reference for the sorted-column index.
def reference_domination_digraph(instance, spec):
    nodes = instance.ids
    rows = tuple(
        sum(1 << k for k, y in enumerate(instance.solutions) if r_dominates(x, y, spec))
        for x in instance.solutions
    )
    return DominationDigraph(nodes=nodes, rows=rows)


QUASI_KINDS = (RelationKind.QUASI_K, RelationKind.ONE_EXACT_QUASI_K)
# pairwise coprime denominators, so sums and products of values do not reduce
COPRIME_DENOMINATORS = (1, 7, 11, 13, 10007, 65537, 999983)


@st.composite
def digraph_cases(draw):
    """A relation spec (k up to p + 1) and an instance of up to 10 solutions: fresh
    vectors with coprime denominators, duplicate images, and vectors whose
    components sit on, or 10^-9 either side of, an earlier vector's exact or
    1 + eps boundary."""
    p = draw(st.integers(min_value=1, max_value=5))
    eps = draw(st.sampled_from([Fraction(1, 7), Fraction(1, 2), Fraction(1), Fraction(5, 3)]))
    kind = draw(st.sampled_from(list(RelationKind)))
    k = draw(st.integers(min_value=1, max_value=p + 1)) if kind in QUASI_KINDS else None
    vectors = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        how = draw(st.sampled_from(["fresh", "duplicate", "boundary"])) if vectors else "fresh"
        if how == "fresh":
            q = draw(st.sampled_from(COPRIME_DENOMINATORS))
            vec = tuple(Fraction(draw(st.integers(min_value=1, max_value=8 * q)), q) for _ in range(p))
        else:
            base = draw(st.sampled_from(vectors))
            vec = base
            if how == "boundary":
                nudge = draw(st.sampled_from([-Fraction(1, 10**9), Fraction(0), Fraction(1, 10**9)]))
                edges = [draw(st.sampled_from([b, (1 + eps) * b, b / (1 + eps)])) for b in base]
                vec = tuple(edge + nudge * b for edge, b in zip(edges, base))
        vectors.append(vec)
    instance = Instance(p=p, solutions=tuple(
        Solution(f"s{i}", vec) for i, vec in enumerate(vectors)
    ))
    return RelationSpec(kind, eps, k), instance


def _digraph_outcome(builder, instance, spec):
    try:
        return builder(instance, spec)
    except ValueError as exc:
        return f"ValueError: {exc}"


# model._SCALE_BITS: every column falls back to Fractions (0), the columns
# with large coprime denominators do (12), or none does (None: the default)
SCALE_BITS = [0, 12, None]


def under_scale_bits(mp, scale_bits, instance):
    """The instance rebuilt with model._SCALE_BITS patched, so its image is cached under it."""
    if scale_bits is not None:
        mp.setattr(model, "_SCALE_BITS", scale_bits)
    fresh = Instance(instance.p, instance.solutions)
    if scale_bits == 0 and fresh.solutions:
        assert all(scale is None for scale, _ in fresh._image)
    return fresh


class TestIndexAndImageFiltersMatchThePairwiseReferences:
    """domination_digraph on the sorted-column index, and efficient_set and
    weakly_efficient_set on image rows, under each scale limit."""

    @settings(max_examples=400, deadline=None)
    @given(digraph_cases(), st.sampled_from(SCALE_BITS))
    def test_same_digraph_or_error_and_same_efficient_sets(self, case, scale_bits):
        spec, instance = case
        with pytest.MonkeyPatch.context() as mp:
            instance = under_scale_bits(mp, scale_bits, instance)
            # the index is cached on the instance: query it for two relations in turn
            for relation in (spec, RelationSpec(RelationKind.EPSILON, spec.eps)):
                assert _digraph_outcome(domination_digraph, instance, relation) == _digraph_outcome(
                    reference_domination_digraph, instance, relation
                )
            assert efficient_set(instance) == reference_efficient_set(instance)
            assert weakly_efficient_set(instance) == reference_weakly_efficient_set(instance)

    @pytest.mark.parametrize("p", range(1, 6))
    def test_every_kind_and_k_on_a_random_instance(self, p):
        instance = gen_random(40, p, seed=p)
        specs = [RelationSpec(kind, Fraction(1, 2)) for kind in list(RelationKind)[:3]] + [
            RelationSpec(kind, Fraction(1, 2), k) for kind in QUASI_KINDS for k in range(1, p + 1)
        ]
        for spec in specs:
            if spec.kind is RelationKind.TWO_EXACT and p == 1:
                continue
            assert domination_digraph(instance, spec) == reference_domination_digraph(instance, spec)

    @pytest.mark.parametrize("scale_bits", SCALE_BITS)
    def test_empty_instance(self, scale_bits, monkeypatch):
        empty = under_scale_bits(monkeypatch, scale_bits, Instance(p=1, solutions=()))
        for spec in (
            RelationSpec(RelationKind.TWO_EXACT, Fraction(1)),
            RelationSpec(RelationKind.QUASI_K, Fraction(1), k=2),
        ):  # no pair is compared, so the rule's errors do not arise
            assert domination_digraph(empty, spec) == reference_domination_digraph(empty, spec)
            assert domination_digraph(empty, spec) == DominationDigraph(nodes=(), rows=())

    def test_errors_keep_their_messages(self):
        one = inst((1,), (2,))
        two = RelationSpec(RelationKind.TWO_EXACT, Fraction(1))
        with pytest.raises(ValueError, match="^two-exact dominance needs at least two objectives$"):
            domination_digraph(one, two)
        pair = inst((1, 2), (2, 1))
        for kind in QUASI_KINDS:
            with pytest.raises(ValueError, match=r"^k=3 exceeds the number of objectives p=2$"):
                domination_digraph(pair, RelationSpec(kind, Fraction(1), k=3))

    def test_instance_equality_ignores_the_index(self):
        i = gen_random(12, 3, seed=4)
        before = (i == gen_random(12, 3, seed=4), hash(i), repr(i))
        domination_digraph(i, RelationSpec(RelationKind.QUASI_K, Fraction(1, 2), k=2))
        assert (i == gen_random(12, 3, seed=4), hash(i), repr(i)) == before

    @pytest.mark.parametrize("scale_bits", SCALE_BITS)
    def test_the_filters_on_an_empty_instance(self, scale_bits, monkeypatch):
        for p in (1, 3):
            empty = under_scale_bits(monkeypatch, scale_bits, Instance(p=p, solutions=()))
            assert efficient_set(empty) == weakly_efficient_set(empty) == set()


def reference_skyline(rows, beats):
    """The skyline loop that tested each row against every kept row."""
    front, kept = [], []
    for i in sorted(range(len(rows)), key=rows.__getitem__):
        if not any(beats(y, rows[i]) for y in kept):
            front.append(i)
            kept.append(rows[i])
    return front


BEATS = {
    "strictly-below": _strictly_below,
    "below-and-distinct": lambda y, x: y != x and _weakly_below(y, x),
    "weakly-below": _weakly_below,
}
STRICT = {"strictly-below": True, "below-and-distinct": False}


def asking_the_front(monkeypatch):
    """Make `dominance._weakly_below` and `_strictly_below` record each (helper, y, x)
    they are asked, rows by identity; return the record."""
    asked = []
    for name in ("_weakly_below", "_strictly_below"):

        def counting(y, x, name=name, helper=getattr(dominance, name)):
            asked.append((name, id(y), id(x)))
            return helper(y, x)

        monkeypatch.setattr(dominance, name, counting)
    return asked


def beaten_rows():
    """p = 4: 15 minimal rows (sum 7 in the first three coordinates, 1 in the fourth)
    and 90 beaten ones, in an order no sort gives."""
    rows = [r + (1,) for r in product(range(1, 6), repeat=3) if sum(r) >= 7]
    rows.sort(key=lambda r: r[::-1])
    return inst(*rows)


class TestFrontAsksOnlyTheMinimalRows:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda p: st.lists(st.tuples(*[st.integers(min_value=0, max_value=3)] * p), max_size=40)
        ),
        st.sampled_from(sorted(BEATS)),
    )
    def test_matches_the_loop_over_every_kept_row(self, rows, beats):
        if beats in STRICT:
            assert _front(rows, STRICT[beats]) == reference_skyline(rows, BEATS[beats])
            return
        # the gap construction's prune, on a gap that answers the rows in turn
        pool = [Solution(f"x{i}", tuple(Fraction(v + 1) for v in row)) for i, row in enumerate(rows)]
        asked = []

        def gap(query):
            asked.append(query)
            return pool[len(asked) - 1] if len(asked) <= len(pool) else None

        found = constructors.construct_via_gap(gap, Fraction(1), 2, 2)
        assert len(asked) >= len(pool)
        assert found == [pool[i] for i in sorted(reference_skyline(rows, _weakly_below))]

    def test_a_large_weakly_efficient_front_costs_calls_per_minimal_row(self, monkeypatch):
        m, ties = 6, 60
        # the fourth coordinate is not a copy of the third, which `_front` would drop
        antichain = [(i, m + 1 - i, 1, 2) for i in range(1, m + 1)]
        # each ties (1, m, 1, 2) in all but the second coordinate: weakly efficient, not efficient
        tied = [(1, m + 1 + j, 1, 2) for j in range(1, ties + 1)]
        dominated = [(i + 1, m + 2 - i, 2, 3) for i in range(1, m)]
        rows = tied[::2] + dominated + antichain[::-1] + tied[1::2]
        asked = asking_the_front(monkeypatch)
        front = _front(rows, strict=True)
        assert sorted(rows[i] for i in front) == sorted(antichain + tied)
        for name in ("_weakly_below", "_strictly_below"):
            assert 0 < sum(1 for a in asked if a[0] == name) <= len(rows) * len(antichain)

    @pytest.mark.parametrize(
        "make, size",
        [(beaten_rows, 15), (lambda: gen_random(300, 4, seed=1), 47)],
        ids=["beaten", "random"],
    )
    def test_the_efficient_front_asks_each_pair_once_at_p_4(self, make, size, monkeypatch):
        instance = make()
        asked = asking_the_front(monkeypatch)
        efficient = efficient_set(instance)
        assert efficient == reference_efficient_set(instance) and len(efficient) == size
        minimal = {instance.solution(i).f for i in efficient}
        assert asked and len(asked) == len(set(asked))
        assert {name for name, _, _ in asked} == {"_weakly_below"}
        assert len(asked) <= len(instance.solutions) * len(minimal)

    def test_the_gap_sweeps_prune_at_p_3_asks_no_pair(self, monkeypatch):
        instance = gen_random(100, 3, seed=12, value_range=3)
        asked = asking_the_front(monkeypatch)
        value_bound = derive_value_bound(instance)
        oracle = partial(gap_oracle, instance)
        found = constructors.construct_via_gap(oracle, Fraction(1, 2), value_bound, instance.p)
        assert len(found) == 15
        assert asked == []
        assert not hasattr(constructors, "_weakly_below")


# numerators 1..4 over 1, 3 or 7: ties in every column and image twins are common,
# and the scale limits of SCALE_BITS turn the thirds and sevenths into Fraction columns
sweep_rows = st.integers(min_value=1, max_value=5).flatmap(
    lambda p: st.lists(
        st.tuples(*[st.builds(Fraction, st.integers(1, 4), st.sampled_from([1, 3, 7]))] * p),
        min_size=1,
        max_size=40,
    )
)


class TestFrontSweepMatchesTheSkyline:
    """`_front`, a sort-and-sweep at p <= 3 and a presorted skyline at p >= 4, keeps the
    positions and order of `reference_skyline`, the loop over every kept row."""

    @settings(max_examples=300, deadline=None)
    @given(sweep_rows, st.randoms(use_true_random=False), st.sampled_from(SCALE_BITS))
    def test_same_positions_in_the_same_order_and_the_same_lift(self, rows, rng, scale_bits):
        eps = Fraction(1)
        spec = RelationSpec(RelationKind.EPSILON, eps)
        with pytest.MonkeyPatch.context() as mp:
            instance = under_scale_bits(mp, scale_bits, inst(*rows))
            for beats, strict in STRICT.items():
                expected = reference_skyline(rows, BEATS[beats])
                assert _front(rows, strict) == expected
                # the image keeps the order of the Fraction rows, and so their positions
                assert _front(instance._rows, strict) == expected
            # the lift takes the same front rows: a random subset, plus what it leaves
            # uncovered at eps = 1, lifted through `_front` and then through the reference
            subset = [s for s in instance.solutions if rng.random() < 0.5]
            members = [s.id for s in subset] + [
                x.id for x in instance.solutions if not any(r_dominates(m, x, spec) for m in subset)
            ]
            lifted = constructors.weakly_efficient_lift(instance, members, eps)
            mp.setattr(
                constructors,
                "_front",
                lambda image, strict: reference_skyline(image, BEATS["strictly-below"]),
            )
            assert constructors.weakly_efficient_lift(instance, members, eps) == lifted


@st.composite
def widened_rows(draw):
    """sweep_rows with copies of their columns put in at random places: (rows, widened)."""
    rows = draw(sweep_rows)
    columns = list(zip(*rows))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        copy = columns[draw(st.integers(min_value=0, max_value=len(columns) - 1))]
        columns.insert(draw(st.integers(min_value=0, max_value=len(columns))), copy)
    return rows, list(zip(*columns))


class TestCopiedColumnsAreDropped:
    """Columns that copy an earlier one change neither `_front`'s positions nor their order."""

    @settings(max_examples=300, deadline=None)
    @given(widened_rows())
    def test_same_positions_in_the_same_order(self, case):
        rows, widened = case
        for beats, strict in STRICT.items():
            expected = reference_skyline(widened, BEATS[beats])
            assert _front(widened, strict) == expected
            assert sorted(expected) == sorted(reference_skyline(rows, BEATS[beats]))


def product_front(n):
    """p = 3 antichain: a, b from randint(100, 1000)/100 of a fresh Random(4), c = 1000/(a*b)."""
    rng = random.Random(4)
    solutions = []
    for i in range(n):
        a, b = Fraction(rng.randint(100, 1000), 100), Fraction(rng.randint(100, 1000), 100)
        solutions.append(Solution(f"x{i}", (a, b, 1000 / (a * b))))
    return Instance(3, tuple(solutions))


class TestNoQuadraticFront:
    """At p <= 3 no front tests a pair of rows, so none costs n * |front|; at p = 4 each does."""

    @staticmethod
    def pairs_per_caller(monkeypatch, instance):
        asked = asking_the_front(monkeypatch)
        counts = []

        def counted(call, *args):
            before = len(asked)
            result = call(*args)
            counts.append(len(asked) - before)
            return result

        eps = Fraction(1, 4)
        counted(efficient_set, instance)
        counted(weakly_efficient_set, instance)
        counted(filter_weakly_nondominated_cells, bucket(instance, eps))
        spec = RelationSpec(RelationKind.EPSILON, eps)
        grid = counted(constructors.construct_grid_approx, instance, spec)
        counted(constructors.weakly_efficient_lift, instance, grid.members, eps)
        return counts

    @pytest.mark.parametrize("make", [gen_antichain, product_front], ids=["p2", "p3"])
    def test_no_front_tests_a_pair_at_p_up_to_3(self, make, monkeypatch):
        instance = make(2000)
        assert len(efficient_set(instance)) == len(instance.solutions)
        assert self.pairs_per_caller(monkeypatch, instance) == [0] * 5

    def test_no_front_tests_a_pair_on_a_lift_by_copied_columns(self, monkeypatch):
        instance = gen_duplicated(gen_antichain(2000), 4, "quasi_k_over_half")
        assert self.pairs_per_caller(monkeypatch, instance) == [0] * 5

    def test_every_front_tests_pairs_at_p_4(self, monkeypatch):
        instance = gen_random(60, 4, seed=1)
        # efficient, weakly efficient, the cell filter, the grid's cell filter, the lift
        assert all(self.pairs_per_caller(monkeypatch, instance))
