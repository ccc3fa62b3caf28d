"""Traced run: every job again, as the sequence of layer calls its command makes.

Spans are recorded here, around public functions of each layer, in the
order the CLI calls them; nothing inside the library is wrapped, and no
per-pair call such as `r_dominates` is ever timed.  The one exception to
"around" is the gap oracle, which `construct_via_gap` receives as an
argument: a timed wrapper is passed in its place.

`construct_grid_approx` is timed whole, then its stages are run again on the
same inputs (bucket, cell filter, per-cell selection, verification), as
`cli._stats_row` does; the stages must reproduce its set exactly, and its
self time is the whole minus the stages.

Every runner returns the bytes the CLI job prints and writes, so the traced
run can be compared byte for byte with the untraced one.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

import mopareto
from mopareto.oracles import dual_restrict_2approx, gap_oracle, greedy_biobjective_min

from workloads import MIN_NODE_CAP

TIME_METRICS = (
    "grid.bucket_s",
    "grid.filter_s",
    "domsets.cell_select_s",
    "dominance.digraph_s",
    "dominance.efficient_s",
    "domsets.greedy_cover_s",
    "domsets.exact_min_s",
    "constructors.verify_s",
    "constructors.grid_self_s",
    "constructors.gap_sweep_self_s",
    "model.load_instance_s",
    "model.load_set_s",
    "model.save_set_s",
    "oracles.gap_s",
    "oracles.bi_sweep_s",
)

COUNT_METRICS = (
    "grid.cells",
    "grid.retained_cells",
    "domsets.cell_picks",
    "dominance.pairs",
    "dominance.arcs",
    "dominance.efficient_members",
    "domsets.greedy_cover_members",
    "domsets.exact_min_members",
    "domsets.greedy_on_exact_members",
    "constructors.verify_targets",
    "constructors.certificate_entries",
    "model.bytes_read",
    "oracles.gap_queries",
    "oracles.gap_yes",
)

# the layer each workload is meant to load: most of its command time belongs here
INTENDED_LAYER = {
    "grid-build": ("grid.bucket_s", "grid.filter_s"),
    "pairwise": ("dominance.digraph_s", "dominance.efficient_s"),
    "verify-files": (
        "model.load_instance_s", "model.load_set_s", "constructors.verify_s", "model.save_set_s",
    ),
    "gap-query": ("oracles.gap_s", "constructors.gap_sweep_self_s", "oracles.bi_sweep_s"),
}

_GRID_STAGES = ("grid.bucket_s", "grid.filter_s", "domsets.cell_select_s", "constructors.verify_s")


class StageMismatch(Exception):
    """The traced stages did not reproduce what the library call computed."""


class Trace:
    """Seconds and counts of one traced pass over a workload's jobs."""

    def __init__(self):
        self.seconds = dict.fromkeys(TIME_METRICS, 0.0)
        self.counts = dict.fromkeys(COUNT_METRICS, 0)

    @contextmanager
    def span(self, name: str):
        t0 = perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += perf_counter() - t0

    def add(self, name: str, amount: int) -> None:
        self.counts[name] += amount


def _load(tr: Trace, path):
    data = path.read_bytes()
    tr.add("model.bytes_read", len(data))
    with tr.span("model.load_instance_s"):
        return mopareto.load_instance(data)


def _verify(tr: Trace, instance, members, spec):
    with tr.span("constructors.verify_s"):
        result = mopareto.verify_approximation(instance, members, spec)
    if result.ok:
        tr.add("constructors.verify_targets", len(instance))
        tr.add("constructors.certificate_entries", len(result.approximation.certificate))
    else:
        tr.add("constructors.verify_targets", instance.position(result.counterexample) + 1)
    return result


def _emit(tr: Trace, result) -> bytes:
    """What the CLI outputs for a verification result: the set file or the counterexample."""
    if not result.ok:
        return f"{result.counterexample}\n".encode()
    with tr.span("model.save_set_s"):
        return mopareto.save_set(result.approximation)


def _grid_cells(tr: Trace, instance, spec):
    """Bucket, filter and per-cell selection; returns (bucketing, picks per retained cell)."""
    with tr.span("grid.bucket_s"):
        bucketing = mopareto.bucket(instance, spec.eps)
    with tr.span("grid.filter_s"):
        retained = mopareto.filter_weakly_nondominated_cells(bucketing)
    tr.add("grid.cells", len(bucketing.cells))
    tr.add("grid.retained_cells", len(retained))
    picks = []
    with tr.span("domsets.cell_select_s"):
        for cell in sorted(retained):
            ids = bucketing.cells[cell]
            if spec.kind is mopareto.RelationKind.QUASI_K:
                view = mopareto.tournament_view([instance.solution(i) for i in ids], spec.k)
                picks.append(sorted(mopareto.greedy_tournament_dominating_set(view)))
            else:
                picks.append([min(ids, key=lambda i: (instance.solution(i).f, instance.position(i)))])
    tr.add("domsets.cell_picks", sum(map(len, picks)))
    return bucketing, picks


def _digraph(tr: Trace, instance, spec):
    with tr.span("dominance.digraph_s"):
        graph = mopareto.domination_digraph(instance, spec)
    tr.add("dominance.pairs", len(instance) ** 2)
    tr.add("dominance.arcs", graph.arc_count())
    return graph


def _compute_grid(tr: Trace, job) -> bytes:
    instance = _load(tr, job.instance)
    spec = job.relation.spec()
    t0 = perf_counter()
    whole = mopareto.construct_grid_approx(instance, spec)
    whole_s = perf_counter() - t0
    before = sum(tr.seconds[name] for name in _GRID_STAGES)
    _, picks = _grid_cells(tr, instance, spec)
    result = _verify(tr, instance, [m for cell in picks for m in cell], spec)
    if result.approximation != whole:
        raise StageMismatch(f"{job.name}: grid stages do not reproduce construct_grid_approx")
    staged = sum(tr.seconds[name] for name in _GRID_STAGES) - before
    tr.seconds["constructors.grid_self_s"] += whole_s - staged
    with tr.span("model.save_set_s"):
        return mopareto.save_set(whole)


def _compute_cover(tr: Trace, job) -> bytes:
    instance = _load(tr, job.instance)
    spec = job.relation.spec()
    graph = _digraph(tr, instance, spec)
    with tr.span("domsets.greedy_cover_s"):
        chosen = mopareto.greedy_cover_dominating_set(graph)
    tr.add("domsets.greedy_cover_members", len(chosen))
    return _emit(tr, _verify(tr, instance, sorted(chosen, key=instance.position), spec))


def _compute_gap(tr: Trace, job) -> bytes:
    instance = _load(tr, job.instance)
    spec = job.relation.spec()
    value_bound = mopareto.derive_value_bound(instance)
    spent, queries, yes = 0.0, 0, 0

    def timed_oracle(query):
        nonlocal spent, queries, yes
        t0 = perf_counter()
        answer = gap_oracle(instance, query)
        spent += perf_counter() - t0
        queries += 1
        yes += answer is not None
        return answer

    t0 = perf_counter()
    found = mopareto.construct_via_gap(timed_oracle, spec.eps, value_bound, instance.p)
    whole_s = perf_counter() - t0
    if queries != job.budget:
        raise StageMismatch(f"{job.name}: {queries} queries, budget guard predicted {job.budget}")
    tr.seconds["oracles.gap_s"] += spent
    tr.seconds["constructors.gap_sweep_self_s"] += whole_s - spent
    tr.add("oracles.gap_queries", queries)
    tr.add("oracles.gap_yes", yes)
    return _emit(tr, _verify(tr, instance, [s.id for s in found], spec))


def _compute_sweep(tr: Trace, job) -> bytes:
    instance = _load(tr, job.instance)
    spec = job.relation.spec()
    sweep = greedy_biobjective_min if job.algo == "bi-greedy" else dual_restrict_2approx
    with tr.span("oracles.bi_sweep_s"):
        members = list(sweep(instance, spec.eps).members)
    return _emit(tr, _verify(tr, instance, members, spec))


def _verify_file(tr: Trace, job) -> bytes:
    instance = _load(tr, job.instance)
    data = job.set_file.read_bytes()
    tr.add("model.bytes_read", len(data))
    with tr.span("model.load_set_s"):
        aset = mopareto.load_set(data)
    return _emit(tr, _verify(tr, instance, aset.members, job.relation.spec()))


def _minimum(tr: Trace, job) -> bytes:
    instance = _load(tr, job.instance)
    graph = _digraph(tr, instance, job.relation.spec())
    with tr.span("domsets.exact_min_s"):
        members = mopareto.exact_min_dominating_set(graph, node_limit=MIN_NODE_CAP)
    tr.add("domsets.exact_min_members", len(members))
    # untimed: the greedy size on the same graphs is the base of greedy_over_exact
    tr.add("domsets.greedy_on_exact_members", len(mopareto.greedy_cover_dominating_set(graph)))
    return f"{len(members)}\n".encode()


def _stats(tr: Trace, job) -> bytes:
    instance = _load(tr, job.instance)
    with tr.span("dominance.efficient_s"):
        efficient = mopareto.efficient_set(instance)
        weakly = mopareto.weakly_efficient_set(instance)
    tr.add("dominance.efficient_members", len(efficient))
    summary = {
        "n": len(instance),
        "p": instance.p,
        "value_bound": mopareto.derive_value_bound(instance),
        "efficient": len(efficient),
        "weakly_efficient": len(weakly),
    }
    rows = []
    for eps in job.eps_list:
        spec = mopareto.RelationSpec(mopareto.RelationKind.EPSILON, eps)
        bucketing, picks = _grid_cells(tr, instance, spec)
        rows.append({
            "eps": mopareto.render_rational(eps),
            "nonempty_cells": len(bucketing.cells),
            "retained_cells": len(picks),
            "nonempty_diagonals": len({mopareto.diagonal_of(c) for c in bucketing.cells}),
            "grid_members": len({m for cell in picks for m in cell}),
            "max_cell_set": max(map(len, picks), default=0),
        })
    return (json.dumps({"instance": summary, "grids": rows}, indent=2) + "\n").encode()


def run(tr: Trace, job) -> bytes:
    """Run one job layer by layer; returns the bytes the CLI job outputs."""
    if job.command == "compute":
        if job.algo == "grid":
            return _compute_grid(tr, job)
        if job.algo == "greedy-cover":
            return _compute_cover(tr, job)
        if job.algo == "gap":
            return _compute_gap(tr, job)
        return _compute_sweep(tr, job)
    if job.command == "verify":
        return _verify_file(tr, job)
    if job.command == "min":
        return _minimum(tr, job)
    return _stats(tr, job)
