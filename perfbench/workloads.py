"""The four workloads: seeded inputs and the fixed CLI job list of each.

Every job is one call of `mopareto.cli.main(argv)` on files that set-up
writes.  Inputs depend only on the workload name and the seed, so one seed
always gives the same files, the same outputs and the same counts.

Except in the `min` corpus, the seed orders (or, where the order sets the
work, renames) a fixed point set rather than drawing a new one.  The work of
these jobs follows the point set: for n in the thousands, fresh gen_random
sets move the grid cost by about 5% and the gap oracle's NO answers (full
scans) by a fifth, which would swamp a change of that size.

The exponential paths (the gap sweep and the exact solver) are sized before
any timing starts, and a job over its cap is a configuration error.
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import mopareto
from mopareto.grid import ratio_steps_to_reach
from mopareto.numerics import half_step_delta, render_rational

# levels**p budget queries of one `compute --algo gap` job
GAP_QUERY_CAP = 40_000
# nodes of one `min` job; equal to the exact solver's default limit
MIN_NODE_CAP = 25


class ConfigError(Exception):
    """A workload definition would exceed a stated cap."""


@dataclass(frozen=True)
class Relation:
    kind: str
    eps: Fraction
    k: int | None = None

    def flags(self) -> list[str]:
        out = ["--relation", self.kind, "--eps", render_rational(self.eps)]
        if self.k is not None:
            out += ["--k", str(self.k)]
        return out

    def spec(self) -> mopareto.RelationSpec:
        return mopareto.RelationSpec(mopareto.RelationKind(self.kind), self.eps, self.k)


@dataclass(frozen=True)
class Job:
    """One CLI call with what the output gate and the traced run need."""

    name: str
    command: str  # compute | verify | min | stats
    argv: tuple[str, ...]
    n: int
    instance: Path
    relation: Relation
    algo: str | None = None
    set_file: Path | None = None  # verify input
    out: Path | None = None  # file the command writes
    expect_exit: int = 0
    eps_list: tuple[Fraction, ...] = ()  # stats only
    budget: int = 0  # gap queries or min nodes, checked against the caps


def gap_query_count(eps: Fraction, value_bound: int, p: int) -> int:
    """levels**p, with levels computed as `construct_via_gap` computes them."""
    delta = half_step_delta(eps)
    steps = ratio_steps_to_reach(Fraction(1 << (2 * value_bound)), delta) + 1
    return (steps + 1) ** p


def _points(name: str, n: int, p: int, value_range: int = 4):
    """A fixed gen_random point set, chosen by name."""
    return lambda: mopareto.gen_random(n, p, zlib.crc32(name.encode()), value_range)


class _Inputs:
    """Writes the seeded instance and set files of one workload."""

    def __init__(self, workload: str, seed: int, folder: Path):
        self.rng = random.Random(f"{workload}:{seed}")
        self.folder = folder
        self.gen_s = 0.0  # time spent in `generators`

    def write(self, name: str, make):
        t0 = time.perf_counter()
        inst = make()
        self.gen_s += time.perf_counter() - t0
        path = self.folder / f"{name}.json"
        path.write_bytes(mopareto.save_instance(inst))
        return inst, path

    def shuffled(self, name: str, base):
        """The solutions of the instance base() returns, in a seeded order."""
        def make():
            order = list(base().solutions)
            self.rng.shuffle(order)
            return mopareto.Instance(p=len(order[0].f), solutions=tuple(order))
        return self.write(name, make)

    def relabeled(self, name: str, base):
        """The solutions of the instance base() returns, in its order, renamed by the seed."""
        def make():
            solutions = base().solutions
            labels = list(range(1, len(solutions) + 1))
            self.rng.shuffle(labels)
            return mopareto.Instance(p=len(solutions[0].f), solutions=tuple(
                mopareto.Solution(f"s{k}", s.f) for k, s in zip(labels, solutions)))
        return self.write(name, make)

    def instance(self, name: str, n: int, p: int, value_range: int = 4):
        """A fixed gen_random point set, chosen by the job's name, in a seeded order."""
        return self.shuffled(name, _points(name, n, p, value_range))

    def random_instance(self, name: str, n: int, p: int):
        """A gen_random instance drawn from the seed."""
        sub_seed = self.rng.randrange(1 << 31)
        return self.write(name, lambda: mopareto.gen_random(n, p, sub_seed))

    def compute(self, name, inst, path, rel: Relation, algo: str, budget: int = 0) -> Job:
        out = self.folder / f"{name}.{algo}.set.json"
        argv = ("compute", *rel.flags(), "--algo", algo, "-i", str(path), "-o", str(out))
        return Job(name, "compute", argv, len(inst), path, rel, algo=algo, out=out, budget=budget)

    def verify(self, name, path, n: int, rel: Relation, aset, expect_exit: int) -> Job:
        set_file = self.folder / f"{name}.input.set.json"
        set_file.write_bytes(mopareto.save_set(aset))
        argv = ["verify", *rel.flags(), "-i", str(path), "--set", str(set_file)]
        out = None
        if expect_exit == 0:
            out = self.folder / f"{name}.verified.set.json"
            argv += ["-o", str(out)]
        return Job(name, "verify", tuple(argv), n, path, rel,
                   set_file=set_file, out=out, expect_exit=expect_exit)


# grid-build and verify-files share these relation mixes
_GRID_MIX = (
    ("p2-one-exact", 2, Relation("one-exact", Fraction(1, 4))),
    ("p3-epsilon", 3, Relation("epsilon", Fraction(1, 2))),
    ("p4-quasi2", 4, Relation("quasi-k", Fraction(1, 2), 2)),
)

_MIN_RELATIONS = (
    ("epsilon", None), ("one-exact", None), ("two-exact", None), ("quasi-k", 1),
    ("quasi-k", 2), ("one-exact-quasi-k", 1), ("one-exact-quasi-k", 2),
)


def _grid_build(src: _Inputs) -> list[Job]:
    sizes = {2: 3000, 3: 3000, 4: 1000}
    jobs = []
    for name, p, rel in _GRID_MIX:
        inst, path = src.instance(name, sizes[p], p)
        jobs.append(src.compute(name, inst, path, rel, "grid"))
    return jobs


def _pairwise(src: _Inputs) -> list[Job]:
    jobs = []
    for name, n, p, rel in (
        ("p3-two-exact", 220, 3, Relation("two-exact", Fraction(1, 2))),
        ("p4-one-exact-quasi2", 200, 4, Relation("one-exact-quasi-k", Fraction(1, 2), 2)),
        ("p4-quasi3", 190, 4, Relation("quasi-k", Fraction(1, 2), 3)),
    ):
        inst, path = src.instance(name, n, p)
        jobs.append(src.compute(name, inst, path, rel, "greedy-cover"))
    for i in range(64):
        n = src.rng.randint(12, 25)
        p = src.rng.choice((2, 3, 4))
        kind, k = _MIN_RELATIONS[i % len(_MIN_RELATIONS)]
        rel = Relation(kind, src.rng.choice((Fraction(1, 4), Fraction(1, 2), Fraction(1))), k)
        name = f"min{i:02d}"
        inst, path = src.random_instance(name, n, p)
        argv = ("min", *rel.flags(), "-i", str(path), "--limit", str(MIN_NODE_CAP))
        jobs.append(Job(name, "min", argv, n, path, rel, budget=n))
    inst, path = src.instance("stats-p3", 1500, 3)
    eps_list = (Fraction(1, 2), Fraction(1))
    out = src.folder / "stats-p3.stats.json"
    argv = ("stats", "-i", str(path), "--eps", *map(render_rational, eps_list), "-o", str(out))
    jobs.append(Job("stats-p3", "stats", argv, len(inst), path,
                    Relation("epsilon", eps_list[0]), out=out, eps_list=eps_list))
    return jobs


def _verify_files(src: _Inputs) -> list[Job]:
    sizes = {2: 3000, 3: 3000, 4: 1000}
    jobs = []
    for name, p, rel in _GRID_MIX:
        # the verifier scans the members in instance order, so its cost moves
        # by a tenth between random orders: the order is fixed, the seed renames
        inst, path = src.relabeled(name, _points(name, sizes[p], p))
        aset = mopareto.construct_grid_approx(inst, rel.spec())
        jobs.append(src.verify(f"{name}-covered", path, len(inst), rel, aset, 0))
        # The same set against the instance plus one solution, at the middle of
        # the order, that halves every per-objective minimum: no member is within
        # 1+eps < 2 of it, so the verifier scans half the targets, then fails.
        lows = [min(s.f[i] for s in inst.solutions) / 2 for i in range(p)]
        half = len(inst) // 2
        outlier = mopareto.Solution("uncovered", tuple(lows))
        solutions = inst.solutions[:half] + (outlier,) + inst.solutions[half:]
        bad, bad_path = src.write(f"{name}-outlier", lambda: mopareto.Instance(p, solutions))
        jobs.append(src.verify(f"{name}-uncovered", bad_path, len(bad), rel, aset, 4))
    return jobs


def _gap_query(src: _Inputs) -> list[Job]:
    jobs = []
    for name, n, p, value_range, eps in (
        ("p2-gap", 100, 2, 4, Fraction(1, 8)),
        ("p3-gap", 100, 3, 3, Fraction(1, 2)),
    ):
        # a YES answer is the first fitting solution in instance order, so the
        # order moves the oracle's work by a tenth: fixed order, seeded names
        inst, path = src.relabeled(name, _points(name, n, p, value_range))
        queries = gap_query_count(eps, mopareto.derive_value_bound(inst), p)
        jobs.append(src.compute(name, inst, path, Relation("epsilon", eps), "gap", queries))
    # a random instance's front holds a few points; an antichain is all front
    inst, path = src.shuffled("p2-front", lambda: mopareto.gen_antichain(1500))
    for algo in ("bi-greedy", "bi-dual2"):
        jobs.append(src.compute(f"p2-{algo}", inst, path, Relation("epsilon", Fraction(1, 8)), algo))
    return jobs


WORKLOADS = {
    "grid-build": _grid_build,
    "pairwise": _pairwise,
    "verify-files": _verify_files,
    "gap-query": _gap_query,
}


def check_budgets(jobs: list[Job]) -> None:
    for job in jobs:
        if job.algo == "gap" and job.budget > GAP_QUERY_CAP:
            raise ConfigError(f"{job.name}: {job.budget} gap queries exceed the cap {GAP_QUERY_CAP}")
        if job.command == "min" and job.budget > MIN_NODE_CAP:
            raise ConfigError(f"{job.name}: {job.budget} nodes exceed the cap {MIN_NODE_CAP}")


def build(workload: str, seed: int, folder: Path) -> tuple[list[Job], float]:
    """Write the workload's inputs into folder; return its jobs and generator time."""
    src = _Inputs(workload, seed, folder)
    jobs = WORKLOADS[workload](src)
    check_budgets(jobs)
    return jobs, src.gen_s
