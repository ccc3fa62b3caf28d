from fractions import Fraction
from itertools import combinations

import pytest

from mopareto.dominance import (
    _check_dims,
    domination_digraph,
    efficient_set,
)
from mopareto.domsets import exact_min_dominating_set
from mopareto.generators import (
    gen_antichain,
    gen_duplicated,
    gen_prop_dominated,
    gen_prop_one_exact,
    gen_quasi2_gap,
    gen_random,
)
from mopareto.model import Instance, RelationKind, RelationSpec, Solution
from mopareto.constructors import verify_approximation

F = Fraction


def strictly_dominates(x: Solution, y: Solution) -> bool:
    """Strictly better in every objective."""
    _check_dims(x.f, y.f)
    return all(a < b for a, b in zip(x.f, y.f))


class TestDominatedCoverFamily:
    def test_values_at_eps_one(self):
        inst = gen_prop_dominated(F(1))
        images = {s.id: s.f for s in inst}
        assert images == {
            "x1": (F(1), F(4)),
            "x2": (F(3, 2), F(5, 2)),
            "x3": (F(5, 2), F(3, 2)),
            "x4": (F(4), F(1)),
            "x5": (F(2), F(3)),
            "x6": (F(3), F(2)),
        }

    @pytest.mark.parametrize("eps", [F(1), F(1, 2), F(2, 7)])
    def test_x5_x6_strictly_dominated(self, eps):
        inst = gen_prop_dominated(eps)
        assert strictly_dominates(inst.solution("x2"), inst.solution("x5"))
        assert strictly_dominates(inst.solution("x3"), inst.solution("x6"))

    @pytest.mark.parametrize("eps", [F(1), F(1, 2), F(2, 7)])
    def test_x5_x6_form_a_quasi_one_cover(self, eps):
        inst = gen_prop_dominated(eps)
        spec = RelationSpec(RelationKind.QUASI_K, eps, k=1)
        assert verify_approximation(inst, ["x5", "x6"], spec).ok


class TestDominatedCoverFamilyIsNotUnique:
    SEVEN = [
        ("x1", "x3"), ("x1", "x4"), ("x2", "x3"), ("x2", "x4"),
        ("x2", "x6"), ("x3", "x5"), ("x5", "x6"),
    ]

    @pytest.mark.parametrize("eps", [F(1), F(1, 2), F(1, 4)])
    def test_seven_two_member_quasi_one_covers(self, eps):
        inst = gen_prop_dominated(eps)
        spec = RelationSpec(RelationKind.QUASI_K, eps, k=1)
        covers = [c for c in combinations(inst.ids, 2) if verify_approximation(inst, c, spec).ok]
        assert covers == self.SEVEN
        efficient = efficient_set(inst)
        assert [c for c in covers if set(c) <= efficient] == self.SEVEN[:4]
        assert not (set(self.SEVEN[-1]) & efficient)  # {x5, x6}: dominated members only

    @pytest.mark.parametrize("eps", [F(1), F(1, 2), F(1, 4)])
    def test_no_single_member_covers(self, eps):
        inst = gen_prop_dominated(eps)
        for spec in (
            RelationSpec(RelationKind.QUASI_K, eps, k=1),
            RelationSpec(RelationKind.EPSILON, eps),
        ):
            assert not any(verify_approximation(inst, [m], spec).ok for m in inst.ids)


class TestOneExactChainFamily:
    def test_values_at_delta_tenth_n_one(self):
        inst = gen_prop_one_exact(F(1, 10), 1)
        images = {s.id: s.f for s in inst}
        assert images == {
            "x0": (F(1), F(121, 100)),
            "xbar1": (F(3), F(1)),
            "x1": (F(4), F(11, 10)),
            "xtil1": (F(5), F(10, 11)),
        }

    def test_solution_count_is_three_n_plus_one(self):
        for n in (1, 2, 3):
            assert len(gen_prop_one_exact(F(1, 10), n)) == 3 * n + 1

    def test_chain_members_strictly_dominated_except_anchor(self):
        inst = gen_prop_one_exact(F(1, 10), 2)
        for i in (1, 2):
            assert strictly_dominates(inst.solution(f"xbar{i}"), inst.solution(f"x{i}"))
        eff = efficient_set(inst)
        assert "x0" in eff and "x1" not in eff and "x2" not in eff

    def test_named_set_is_one_exact_cover(self):
        n = 2
        inst = gen_prop_one_exact(F(1, 10), n)
        eps = (1 + F(1, 10)) ** (2 * n) - 1
        spec = RelationSpec(RelationKind.ONE_EXACT, eps)
        assert verify_approximation(inst, [f"x{i}" for i in range(n + 1)], spec).ok

    def test_minimum_one_exact_cardinality_is_n_plus_one(self):
        n = 2
        inst = gen_prop_one_exact(F(1, 10), n)
        eps = (1 + F(1, 10)) ** (2 * n) - 1
        graph = domination_digraph(inst, RelationSpec(RelationKind.ONE_EXACT, eps))
        assert len(exact_min_dominating_set(graph)) == n + 1


class TestQuasiTwoGapFamily:
    def test_values_at_eps_one_n_two(self):
        inst = gen_quasi2_gap(F(1), 2)
        images = {s.id: s.f for s in inst}
        assert images == {
            "x0": (F(2), F(2), F(2)),
            "x1": (F(3, 2), F(3, 2), F(8)),
            "x2": (F(1), F(1), F(32)),
        }

    def test_single_point_covers_within_slack(self):
        inst = gen_quasi2_gap(F(1), 3)
        spec = RelationSpec(RelationKind.EPSILON, F(1))
        assert verify_approximation(inst, ["x0"], spec).ok

    def test_two_exact_components_force_everyone(self):
        n = 3
        inst = gen_quasi2_gap(F(1), n)
        graph = domination_digraph(inst, RelationSpec(RelationKind.QUASI_K, F(1), k=2))
        assert len(exact_min_dominating_set(graph)) == n + 1


class TestDuplication:
    def test_one_exact_quasi2_layout(self):
        base = gen_antichain(2)  # (1, 2), (2, 1)
        lifted = gen_duplicated(base, 3, "one_exact_quasi2")
        assert lifted.solution("a1").f == (F(1), F(2), F(2))
        lifted4 = gen_duplicated(base, 4, "one_exact_quasi2")
        assert lifted4.solution("a1").f == (F(1), F(2), F(2), F(2))

    def test_half_split_layout(self):
        base = gen_antichain(2)
        lifted = gen_duplicated(base, 5, "quasi_k_over_half")
        assert lifted.solution("a1").f == (F(1), F(1), F(1), F(2), F(2))

    def test_requires_biobjective_base(self):
        with pytest.raises(ValueError, match="biobjective"):
            gen_duplicated(gen_quasi2_gap(F(1), 1), 4, "one_exact_quasi2")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match=r"^unknown duplication mode: 'quasi-k-over-half'$"):
            gen_duplicated(gen_antichain(2), 4, "quasi-k-over-half")  # the CLI spelling

    def test_the_mode_is_checked_before_any_solution(self):
        with pytest.raises(ValueError, match=r"^unknown duplication mode: 'bogus'$"):
            gen_duplicated(Instance(2, ()), 3, "bogus")

    def test_lifted_antichain_needs_every_point_when_first_exact_plus_one(self):
        lifted = gen_duplicated(gen_antichain(5), 3, "one_exact_quasi2")
        spec = RelationSpec(RelationKind.ONE_EXACT_QUASI_K, F(1), k=2)
        graph = domination_digraph(lifted, spec)
        assert len(exact_min_dominating_set(graph)) == 5

    def test_lifted_antichain_pigeonhole_forces_everyone(self):
        lifted = gen_duplicated(gen_antichain(5), 4, "quasi_k_over_half")
        spec = RelationSpec(RelationKind.QUASI_K, F(1), k=3)
        graph = domination_digraph(lifted, spec)
        assert len(exact_min_dominating_set(graph)) == 5

    def test_large_eps_collapses_plain_cover_but_not_partially_exact(self):
        n = 8
        lifted = gen_duplicated(gen_antichain(n), 3, "one_exact_quasi2")
        eps = F(n)
        plain = domination_digraph(lifted, RelationSpec(RelationKind.EPSILON, eps))
        partial = domination_digraph(
            lifted, RelationSpec(RelationKind.ONE_EXACT_QUASI_K, eps, k=2)
        )
        assert len(exact_min_dominating_set(plain)) == 1
        assert len(exact_min_dominating_set(partial)) == n


@pytest.mark.parametrize(
    "make",
    [gen_prop_dominated, lambda v: gen_prop_one_exact(v, 3), lambda v: gen_quasi2_gap(v, 3)],
    ids=["gen_prop_dominated", "gen_prop_one_exact", "gen_quasi2_gap"],
)
def test_an_int_parameter_builds_the_instance_of_its_fraction(make):
    # e / 2 and tail / (1+d)**i on an int would be floats, which Instance refuses
    for value in (1, 2):
        assert make(value) == make(F(value))


class TestAntichainAndRandom:
    def test_antichain_values_and_efficiency(self):
        inst = gen_antichain(3)
        assert [s.f for s in inst] == [(F(1), F(3)), (F(2), F(2)), (F(3), F(1))]
        assert efficient_set(inst) == {"a1", "a2", "a3"}

    def test_random_is_deterministic_per_seed(self):
        assert gen_random(15, 3, seed=42) == gen_random(15, 3, seed=42)
        assert gen_random(15, 3, seed=42) != gen_random(15, 3, seed=43)

    def test_random_values_within_range(self):
        inst = gen_random(40, 2, seed=7, value_range=3)
        assert all(F(1, 8) <= v <= 8 for s in inst for v in s.f)
