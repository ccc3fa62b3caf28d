"""Output gate: checks every job's first output, outside the timed region.

Coverage is re-checked with a reference relation written here from the
README relation table, on values parsed here from the instance file, so a
defect in the library's own dominance code cannot vouch for itself.  Written
sets are also re-checked with `certificate_is_valid`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import mopareto

# optimality of a `min` answer is proven by enumeration up to this many subsets
MIN_PROOF_SUBSETS = 20_000


def covers(fx, fy, rel) -> bool:
    """Does fx cover fy under the relation? (README relation table)"""
    slack = 1 + rel.eps
    if not all(a <= slack * b for a, b in zip(fx, fy)):
        return False
    exact = [a <= b for a, b in zip(fx, fy)]
    if rel.kind == "epsilon":
        return True
    if rel.kind == "one-exact":
        return exact[0]
    if rel.kind == "two-exact":
        return exact[0] and exact[1]
    if rel.kind == "quasi-k":
        return sum(exact) >= rel.k
    if rel.kind == "one-exact-quasi-k":
        return exact[0] and sum(exact) >= rel.k
    raise ValueError(f"unknown relation kind {rel.kind!r}")


def read_values(path: Path) -> dict[str, tuple[Fraction, ...]]:
    """Solution id -> objective vector, in instance order."""
    raw = json.loads(path.read_bytes())
    return {s["id"]: tuple(Fraction(v) for v in s["f"]) for s in raw["solutions"]}


def _value_bound(values) -> int:
    m = 0
    for vec in values.values():
        for v in vec:
            while not Fraction(1, 1 << m) <= v <= (1 << m):
                m += 1
    return m


def _pareto_counts(values) -> tuple[int, int]:
    """(efficient, weakly efficient) counts by the definitions, O(n^2)."""
    vecs = list(values.values())

    def dominated(x, strict):
        for y in vecs:
            if strict and all(a < b for a, b in zip(y, x)):
                return True
            if not strict and all(a <= b for a, b in zip(y, x)) and y != x:
                return True
        return False

    return (sum(not dominated(x, False) for x in vecs),
            sum(not dominated(x, True) for x in vecs))


def _check_set(job, values, out: bytes | None) -> str | None:
    if out is None:
        return "no set file written"
    aset = mopareto.load_set(out)
    if aset.relation != job.relation.spec():
        return "set file names another relation"
    instance = mopareto.load_instance(job.instance.read_bytes())
    if not mopareto.certificate_is_valid(instance, aset):
        return "certificate_is_valid rejects the written set"
    for e in aset.certificate:
        if not covers(values[e.by], values[e.covered], job.relation):
            return f"reference relation: {e.by} does not cover {e.covered}"
    if job.command == "verify":
        given = mopareto.load_set(job.set_file.read_bytes()).members
        position = {sol_id: i for i, sol_id in enumerate(values)}
        if list(aset.members) != sorted(set(given), key=position.__getitem__):
            return "verified set has other members than the input set"
    return None


def _check_uncovered(job, values, stdout: str, out: bytes | None) -> str | None:
    cex = stdout.strip()
    if cex not in values:
        return f"counterexample {cex!r} is not a solution id"
    if out is not None:
        return "a set file was written for a failing set"
    members = mopareto.load_set(job.set_file.read_bytes()).members
    hit = [m for m in members if covers(values[m], values[cex], job.relation)]
    if hit:
        return f"counterexample {cex!r} is covered by {hit[0]!r}"
    return None


def _check_min(job, values, stdout: str, stderr: str) -> str | None:
    size = int(stdout.strip())
    members = stderr.strip().rsplit(": ", 1)[-1].split()
    if len(members) != size or not set(members) <= set(values):
        return f"printed members {members} do not match the size {size}"
    ids = list(values)
    masks = [sum(1 << j for j, y in enumerate(ids) if covers(values[x], values[y], job.relation))
             for x in ids]
    full = (1 << len(ids)) - 1
    covered = 0
    for m in members:
        covered |= masks[ids.index(m)]
    if covered != full:
        return "printed members do not cover the instance"
    if size > 1 and comb(len(ids), size - 1) <= MIN_PROOF_SUBSETS:
        for subset in combinations(masks, size - 1):
            acc = 0
            for mask in subset:
                acc |= mask
            if acc == full:
                return f"a cover with {size - 1} members exists"
    return None


def _check_stats(job, values, out: bytes | None) -> str | None:
    if out is None:
        return "no stats file written"
    report = json.loads(out)
    summary, rows = report["instance"], report["grids"]
    vecs = list(values.values())
    expected = {
        "n": len(vecs),
        "p": len(vecs[0]),
        "value_bound": _value_bound(values),
    }
    expected["efficient"], expected["weakly_efficient"] = _pareto_counts(values)
    if summary != expected:
        return f"stats summary {summary} differs from reference {expected}"
    if [r["eps"] for r in rows] != [mopareto.render_rational(e) for e in job.eps_list]:
        return "stats rows do not follow the requested eps list"
    for r in rows:
        if not (r["nonempty_diagonals"] <= r["nonempty_cells"]
                and 1 <= r["retained_cells"] <= r["nonempty_cells"]
                and r["retained_cells"] <= r["grid_members"] <= len(vecs)):
            return f"inconsistent grid row {r}"
    return None


def check(job, exit_code: int, stdout: str, stderr: str, out: bytes | None) -> str | None:
    """None when the job's output is correct, otherwise the reason it is not."""
    if exit_code != job.expect_exit:
        return f"exit {exit_code}, expected {job.expect_exit}"
    values = read_values(job.instance)
    if job.command in ("compute", "verify"):
        if job.expect_exit == 0:
            return _check_set(job, values, out)
        return _check_uncovered(job, values, stdout, out)
    if job.command == "min":
        return _check_min(job, values, stdout, stderr)
    return _check_stats(job, values, out)
