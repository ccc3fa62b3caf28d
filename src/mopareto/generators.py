"""Deterministic instance families used throughout the test and CLI surface.

Each generator is a pure function of its parameters.  The named families
reproduce specific extremal behaviors exactly (see the individual
docstrings); antichain and random instances exist for property testing.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Literal

from .model import Instance, Solution
from .numerics import _integer, _positive

__all__ = [
    "gen_prop_dominated",
    "gen_prop_one_exact",
    "gen_quasi2_gap",
    "gen_duplicated",
    "gen_antichain",
    "gen_random",
]

DuplicationMode = Literal["one_exact_quasi2", "quasi_k_over_half"]


def gen_prop_dominated(eps: Fraction) -> Instance:
    """Six biobjective points where a two-member quasi-1-exact cover of
    strictly dominated solutions exists.

    x5 and x6 are strictly dominated (by x2 and x3 respectively), yet
    {x5, x6} covers everything with at least one exact component, and no
    single solution covers all six even within factor 1 + eps.  Six other
    two-member quasi-1-exact covers exist, four of them all efficient.
    """
    e = Fraction(_positive(eps, "eps"))  # e / 2 of an int eps would be a float
    one = Fraction(1)
    points = [
        ("x1", one, (1 + e) ** 2),
        ("x2", 1 + e / 2, (1 + e) * (1 + e / 4)),
        ("x3", (1 + e) * (1 + e / 4), 1 + e / 2),
        ("x4", (1 + e) ** 2, one),
        ("x5", 1 + e, (1 + e) * (1 + e / 2)),
        ("x6", (1 + e) * (1 + e / 2), 1 + e),
    ]
    return Instance(p=2, solutions=tuple(Solution(i, (a, b)) for i, a, b in points))


def gen_prop_one_exact(delta: Fraction, n: int) -> Instance:
    """Biobjective family of 3n + 1 points whose smallest first-component-exact
    cover has exactly n + 1 members, all but one of them strictly dominated.

    Parameterized by (delta, n) with eps derived as (1+delta)**(2n) - 1 so all
    values stay rational.  Points: x0 = (1, (1+eps)**n) and, for i = 1..n,
    xbar_i = (3i,   (1+eps)**(n-i) * (1+delta)**(i-1)),
    x_i    = (3i+1, (1+eps)**(n-i) * (1+delta)**i),
    xtil_i = (3i+2, (1+eps)**(n-i) / (1+delta)**i).
    """
    d = Fraction(_positive(delta, "delta"))  # tail / (1+d)**i of an int delta would be a float
    if _integer(n, "n") < 1:
        raise ValueError("n must be at least 1")
    e = (1 + d) ** (2 * n) - 1
    solutions = [Solution("x0", (Fraction(1), (1 + e) ** n))]
    for i in range(1, n + 1):
        tail = (1 + e) ** (n - i)
        solutions.append(Solution(f"xbar{i}", (Fraction(3 * i), tail * (1 + d) ** (i - 1))))
        solutions.append(Solution(f"x{i}", (Fraction(3 * i + 1), tail * (1 + d) ** i)))
        solutions.append(Solution(f"xtil{i}", (Fraction(3 * i + 2), tail / (1 + d) ** i)))
    return Instance(p=2, solutions=tuple(solutions))


def gen_quasi2_gap(eps: Fraction, n: int) -> Instance:
    """Three-objective family of n + 1 points where requiring two exact
    components forces all n + 1 points into the cover, while a single point
    suffices within factor 1 + eps.

    x_j = (1 + (n-j)/n * eps, 1 + (n-j)/n * eps, (1+eps)**(2j+1)) for j = 0..n.
    """
    _positive(eps, "eps")
    if _integer(n, "n") < 1:
        raise ValueError("n must be at least 1")
    solutions = []
    for j in range(n + 1):
        head = 1 + Fraction(n - j, n) * eps
        solutions.append(Solution(f"x{j}", (head, head, (1 + eps) ** (2 * j + 1))))
    return Instance(p=3, solutions=tuple(solutions))


def gen_duplicated(base: Instance, p: int, mode: DuplicationMode) -> Instance:
    """Lift a biobjective instance to p objectives by duplicating components.

    one_exact_quasi2:   (g1, g2, g2, ..., g2)  -- one copy of g1, p-1 of g2.
    quasi_k_over_half:  g1 repeated ceil(p/2) times, then g2 floor(p/2) times.
    """
    if base.p != 2:
        raise ValueError("duplication lifts biobjective instances only")
    if _integer(p, "p") < 3:
        raise ValueError("target objective count must be at least 3")
    if mode not in ("one_exact_quasi2", "quasi_k_over_half"):
        raise ValueError(f"unknown duplication mode: {mode!r}")
    ones = 1 if mode == "one_exact_quasi2" else -(-p // 2)  # copies of g1; g2 fills the rest
    return Instance(p=p, solutions=tuple(
        Solution(s.id, (s.f[0],) * ones + (s.f[1],) * (p - ones)) for s in base.solutions))


def gen_antichain(n: int) -> Instance:
    """n pairwise nondominated biobjective points (i, n+1-i) for i = 1..n."""
    if _integer(n, "n") < 1:
        raise ValueError("n must be at least 1")
    return Instance(
        p=2,
        solutions=tuple(
            Solution(f"a{i}", (Fraction(i), Fraction(n + 1 - i))) for i in range(1, n + 1)
        ),
    )


def gen_random(n: int, p: int, seed: int, value_range: int = 4) -> Instance:
    """Reproducible random instance: values are ratios of integers drawn from
    [1, 2**value_range], hence inside [2**-value_range, 2**value_range]."""
    if _integer(n, "n") < 1 or _integer(p, "p") < 1:
        raise ValueError("n and p must be at least 1")
    if _integer(value_range, "value_range") < 1:
        raise ValueError("value_range must be at least 1")
    rng = random.Random(seed)
    top = 1 << value_range
    solutions = tuple(
        Solution(
            f"s{i}",
            tuple(Fraction(rng.randint(1, top), rng.randint(1, top)) for _ in range(p)),
        )
        for i in range(1, n + 1)
    )
    return Instance(p=p, solutions=solutions)
