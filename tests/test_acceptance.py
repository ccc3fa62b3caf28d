"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they print.  Criteria with a stated time budget assert it.
"""

import math
import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from mopareto.constructors import (
    certificate_is_valid,
    construct_grid_approx,
    construct_via_gap,
    verify_approximation,
    weakly_efficient_lift,
)
from mopareto.dominance import (
    _check_dims,
    domination_digraph,
    efficient_set,
    values_r_dominate,
    weakly_efficient_set,
)
from mopareto.domsets import (
    exact_min_dominating_set,
    greedy_cover_dominating_set,
)
from mopareto.generators import (
    gen_antichain,
    gen_duplicated,
    gen_prop_dominated,
    gen_prop_one_exact,
    gen_quasi2_gap,
    gen_random,
)
from mopareto.grid import bucket, diagonal_of, filter_weakly_nondominated_cells
from mopareto.model import (
    GapQuery,
    RelationKind,
    RelationSpec,
    Solution,
    derive_value_bound,
)
from mopareto.oracles import (
    adversarial_pair,
    consistent_gap_answer,
    dual_restrict_2approx,
    greedy_biobjective_min,
    valid_gap_answer,
)

F = Fraction
EPS_ROTATION = (F(1, 2), F(1), F(2))


def strictly_dominates(x: Solution, y: Solution) -> bool:
    """Strictly better in every objective."""
    _check_dims(x.f, y.f)
    return all(a < b for a, b in zip(x.f, y.f))


def _report(num: int, ok: bool, elapsed: float, description: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} {status} ({elapsed:6.2f}s): {description}")
    assert ok, f"criterion {num} failed: {description}"


def _exact_min(instance, spec):
    graph = domination_digraph(instance, spec)
    return len(exact_min_dominating_set(graph, node_limit=30))


@lru_cache(maxsize=None)
def small_corpus():
    """200 seeded instances with p in {2, 3} and n <= 18, plus an eps each."""
    corpus = []
    for seed in range(200):
        n = 6 + seed % 13
        p = 2 + seed % 2
        eps = EPS_ROTATION[seed % 3]
        corpus.append((gen_random(n, p, seed=seed), eps))
    return tuple(corpus)


@lru_cache(maxsize=None)
def biobjective_corpus():
    """200 seeded biobjective instances with n <= 18, plus an eps each."""
    corpus = []
    for seed in range(1000, 1200):
        n = 4 + seed % 15
        eps = EPS_ROTATION[seed % 3]
        corpus.append((gen_random(n, 2, seed=seed), eps))
    return tuple(corpus)


def test_criterion_01_dominated_family_quasi_one_minimum_is_two():
    start = time.perf_counter()
    ok = True
    for eps in (F(1), F(1, 2), F(1, 4)):
        instance = gen_prop_dominated(eps)
        quasi1 = RelationSpec(RelationKind.QUASI_K, eps, k=1)
        ok &= verify_approximation(instance, ["x5", "x6"], quasi1).ok
        ok &= _exact_min(instance, quasi1) == 2
        others = [s for s in instance.solutions if s.id not in ("x5", "x6")]
        for member in ("x5", "x6"):
            ok &= any(strictly_dominates(o, instance.solution(member)) for o in others)
    elapsed = time.perf_counter() - start
    _report(
        1,
        ok and elapsed < 1.0,
        elapsed,
        "six-point family: {x5,x6} is a minimum quasi-1 cover of strictly dominated points",
    )


def test_criterion_02_one_exact_chain_minimum_is_n_plus_one():
    start = time.perf_counter()
    ok = True
    delta = F(1, 10)
    for n in (1, 2, 3):
        instance = gen_prop_one_exact(delta, n)
        eps = (1 + delta) ** (2 * n) - 1
        one_exact = RelationSpec(RelationKind.ONE_EXACT, eps)
        ok &= _exact_min(instance, one_exact) == n + 1
        named = [f"x{i}" for i in range(n + 1)]
        ok &= verify_approximation(instance, named, one_exact).ok
        for member in named[1:]:
            ok &= any(
                strictly_dominates(o, instance.solution(member))
                for o in instance.solutions
                if o.id != member
            )
        ok &= not any(
            strictly_dominates(o, instance.solution("x0"))
            for o in instance.solutions
            if o.id != "x0"
        )
    elapsed = time.perf_counter() - start
    _report(
        2,
        ok and elapsed < 5.0,
        elapsed,
        "first-exact chain: minimum cardinality n+1, all members but the anchor dominated",
    )


def test_criterion_03_quasi_two_cardinality_gap():
    start = time.perf_counter()
    ok = True
    for n in range(2, 9):
        instance = gen_quasi2_gap(F(1), n)
        quasi2 = RelationSpec(RelationKind.QUASI_K, F(1), k=2)
        plain = RelationSpec(RelationKind.EPSILON, F(1))
        min_quasi2 = _exact_min(instance, quasi2)
        min_plain = _exact_min(instance, plain)
        ok &= min_quasi2 == n + 1 and min_plain == 1
        ok &= min_quasi2 > n * min_plain
    elapsed = time.perf_counter() - start
    _report(
        3,
        ok and elapsed < 5.0,
        elapsed,
        "three-objective family: quasi-2 minimum n+1 vs plain minimum 1 (ratio > n)",
    )


def test_criterion_04_quasi_one_minimum_equals_plain_minimum():
    start = time.perf_counter()
    ok = True
    for instance, eps in small_corpus():
        plain = _exact_min(instance, RelationSpec(RelationKind.EPSILON, eps))
        quasi1 = _exact_min(instance, RelationSpec(RelationKind.QUASI_K, eps, k=1))
        ok &= plain == quasi1
    elapsed = time.perf_counter() - start
    _report(
        4,
        ok and elapsed < 120.0,
        elapsed,
        "200 random instances: minimum quasi-1 cardinality equals minimum plain cardinality",
    )


def test_criterion_05_weakly_efficient_covers_are_quasi_one():
    start = time.perf_counter()
    violations = 0
    checked = 0
    for instance, eps in small_corpus():
        plain = RelationSpec(RelationKind.EPSILON, eps)
        quasi1 = RelationSpec(RelationKind.QUASI_K, eps, k=1)
        weakly = weakly_efficient_set(instance)

        candidates = [sorted(weakly, key=instance.position)]
        cover = greedy_cover_dominating_set(domination_digraph(instance, plain))
        candidates.append(list(weakly_efficient_lift(instance, cover, eps).members))
        if instance.p == 2:
            candidates.append(list(greedy_biobjective_min(instance, eps).members))

        for members in candidates:
            assert verify_approximation(instance, members, plain).ok
            assert all(m in weakly for m in members)
            checked += 1
            if not verify_approximation(instance, members, quasi1).ok:
                violations += 1
    elapsed = time.perf_counter() - start
    _report(
        5,
        violations == 0,
        elapsed,
        f"{checked} weakly efficient plain covers all verify as quasi-1 covers "
        f"({violations} violations)",
    )


def test_criterion_06_grid_construction_soundness_and_bounds():
    start = time.perf_counter()
    ok = True
    for seed in range(200):
        n = 20 + (seed * 37) % 481
        p = 2 + seed % 4
        eps = EPS_ROTATION[seed % 3]
        instance = gen_random(n, p, seed=seed, value_range=3)
        half_up = -(-p // 2)
        specs = [
            RelationSpec(RelationKind.EPSILON, eps),
            RelationSpec(RelationKind.ONE_EXACT, eps),
            RelationSpec(RelationKind.QUASI_K, eps, k=1 + seed % half_up),
        ]
        spec = specs[seed % 3]
        aset = construct_grid_approx(instance, spec)
        ok &= certificate_is_valid(instance, aset)
        bucketing = bucket(instance, eps)
        retained = filter_weakly_nondominated_cells(bucketing)
        ok &= len(aset.members) <= len(retained) * (math.ceil(math.log2(n)) + 1)
        keys = [diagonal_of(c) for c in retained]
        ok &= len(keys) == len(set(keys))
    elapsed = time.perf_counter() - start
    _report(
        6,
        ok and elapsed < 120.0,
        elapsed,
        "200 grid constructions verify; members within retained-cell bound; "
        "one retained cell per diagonal",
    )


def test_criterion_07_duplicated_objectives_force_full_covers():
    start = time.perf_counter()
    ok = True
    for n in range(4, 11):
        base = gen_antichain(n)
        lifted3 = gen_duplicated(base, 3, "one_exact_quasi2")
        spec = RelationSpec(RelationKind.ONE_EXACT_QUASI_K, F(1), k=2)
        ok &= _exact_min(lifted3, spec) == n
        for p in (3, 4):
            k = -(-p // 2) + 1
            lifted = gen_duplicated(base, p, "quasi_k_over_half")
            ok &= _exact_min(lifted, RelationSpec(RelationKind.QUASI_K, F(1), k=k)) == n
    elapsed = time.perf_counter() - start
    _report(
        7,
        ok,
        elapsed,
        "duplicated-objective antichains need every point once exactness crosses half",
    )


def test_criterion_08_adversarial_queries_and_gap_blindness():
    start = time.perf_counter()
    ok = True
    for l in (10, 1000):
        pair = adversarial_pair(l)
        rng = random.Random(l)
        invalid = 0
        for i in range(1000):
            b = (
                F(rng.randint(1, 64), rng.randint(1, 32)),
                F(rng.randint(1, 64), rng.randint(1, 32)),
            )
            delta = F(1, l) + (F(rng.randint(0, 8), 8) if i % 4 else F(0))
            query = GapQuery(b=b, delta=delta)
            answer = consistent_gap_answer(pair, query)
            if not (
                valid_gap_answer(pair.i1, query, answer)
                and valid_gap_answer(pair.i2, query, answer)
            ):
                invalid += 1
        ok &= invalid == 0

        found = construct_via_gap(
            lambda q: consistent_gap_answer(pair, q),
            F(1),
            derive_value_bound(pair.i2),
            2,
        )
        members = [s.id for s in found]
        quasi1 = RelationSpec(RelationKind.QUASI_K, F(1), k=1)
        ok &= verify_approximation(pair.i1, members, quasi1).ok
        result = verify_approximation(pair.i2, members, quasi1)
        ok &= not result.ok and result.counterexample == "x2"
    elapsed = time.perf_counter() - start
    _report(
        8,
        ok,
        elapsed,
        "2000 adversarial answers valid for both instances; query-driven construction "
        "misses the hidden point",
    )


def test_criterion_09_biobjective_greedy_reaches_the_minimum():
    start = time.perf_counter()
    ok = True
    for instance, eps in biobjective_corpus():
        result = greedy_biobjective_min(instance, eps)
        minimum = _exact_min(instance, RelationSpec(RelationKind.EPSILON, eps))
        ok &= len(result.members) == minimum
        weakly = weakly_efficient_set(instance)
        ok &= all(m in weakly for m in result.members)
        ok &= result.relation == RelationSpec(RelationKind.QUASI_K, eps, k=1)
        ok &= certificate_is_valid(instance, result)
    elapsed = time.perf_counter() - start
    _report(
        9,
        ok,
        elapsed,
        "200 biobjective instances: greedy cardinality equals the exact minimum, "
        "members weakly efficient, quasi-1 certified",
    )


def test_criterion_10_budget_relaxed_sweep_is_a_two_approximation():
    start = time.perf_counter()
    ok = True
    for instance, eps in biobjective_corpus():
        result = dual_restrict_2approx(instance, eps)
        minimum = _exact_min(instance, RelationSpec(RelationKind.EPSILON, eps))
        ok &= len(result.members) <= 2 * minimum
        eff = efficient_set(instance)
        ok &= all(m in eff for m in result.members)
        ok &= certificate_is_valid(instance, result)
    elapsed = time.perf_counter() - start
    _report(
        10,
        ok,
        elapsed,
        "200 biobjective instances: relaxed sweep within twice the minimum, members efficient",
    )


def test_criterion_11_quasi_k_counting_matches_subset_enumeration():
    start = time.perf_counter()
    rng = random.Random(2024)
    mismatches = 0
    for _ in range(100_000):
        p = rng.randint(1, 5)
        fx = tuple(F(rng.randint(1, 16), rng.randint(1, 16)) for _ in range(p))
        fy = tuple(F(rng.randint(1, 16), rng.randint(1, 16)) for _ in range(p))
        k = rng.randint(1, p)
        eps = F(rng.randint(1, 12), 4)
        counting = values_r_dominate(fx, fy, RelationSpec(RelationKind.QUASI_K, eps, k=k))
        enumeration = any(
            all(fx[i] <= fy[i] for i in subset)
            and all(fx[i] <= (1 + eps) * fy[i] for i in range(p) if i not in subset)
            for subset in combinations(range(p), k)
        )
        if counting != enumeration:
            mismatches += 1
    elapsed = time.perf_counter() - start
    _report(
        11,
        mismatches == 0,
        elapsed,
        f"100000 random pairs: counting criterion matches subset enumeration "
        f"({mismatches} mismatches)",
    )


def test_criterion_12_greedy_cover_within_log_factor():
    start = time.perf_counter()
    ok = True
    kinds = (
        lambda eps, p: RelationSpec(RelationKind.EPSILON, eps),
        lambda eps, p: RelationSpec(RelationKind.ONE_EXACT, eps),
        lambda eps, p: RelationSpec(RelationKind.QUASI_K, eps, k=1),
    )
    for seed in range(200):
        n = 6 + seed % 13
        p = 2 + seed % 2
        eps = EPS_ROTATION[seed % 3]
        instance = gen_random(n, p, seed=5000 + seed)
        graph = domination_digraph(instance, kinds[seed % 3](eps, p))
        greedy = len(greedy_cover_dominating_set(graph))
        minimum = len(exact_min_dominating_set(graph, node_limit=30))
        ok &= greedy <= (1 + math.log(n)) * minimum + 1e-9
    elapsed = time.perf_counter() - start
    _report(
        12,
        ok,
        elapsed,
        "200 random domination digraphs: greedy cover within (1 + ln n) of the minimum",
    )
