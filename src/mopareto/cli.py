"""Command-line surface: generate, compute, verify, minimize, lift, stats.

Machine-readable results go to stdout or --out; human-readable summaries go
to stderr.  Exit codes: 0 success, 2 usage error (an output path that cannot
be written included), 3 malformed or unreadable input file, 4 verification
failure, 5 exact-solver node limit or gap-query limit exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys
from fractions import Fraction
from pathlib import Path

from .constructors import (
    QueryLimitExceeded,
    VerificationFailed,
    _certified,
    _grid_members,
    construct_via_gap,
    grid_select,
    weakly_efficient_lift,
)
from .dominance import domination_digraph, efficient_set, weakly_efficient_set
from .domsets import (
    DEFAULT_NODE_LIMIT,
    NodeLimitExceeded,
    exact_min_dominating_set,
    greedy_cover_dominating_set,
)
from .generators import (
    gen_antichain,
    gen_duplicated,
    gen_prop_dominated,
    gen_prop_one_exact,
    gen_quasi2_gap,
    gen_random,
)
from .grid import diagonal_of
from .model import (
    _KINDS_WITH_K,
    FormatError,
    Instance,
    RelationKind,
    RelationSpec,
    _dumps,
    derive_value_bound,
    load_instance,
    load_set,
    save_instance,
    save_set,
)
from .numerics import _positive, parse_rational, render_rational
from .oracles import _biobjective_sweep, gap_oracle

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BAD_INPUT = 3
EXIT_UNVERIFIED = 4
EXIT_LIMIT = 5


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _read(path: str) -> bytes:
    """An input file's bytes; a path that cannot be read is a bad input file."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise FormatError(str(exc)) from None


def _read_instance(path: str) -> Instance:
    return load_instance(_read(path))


def _read_set(path: str, instance: Instance) -> tuple[str, ...]:
    """A set file's member ids, each checked to name a solution of the instance."""
    members = load_set(_read(path)).members
    try:
        for m in members:
            instance.position(m)
    except KeyError as exc:
        raise FormatError(f"set file: {exc.args[0]}") from None
    return members


def _write_payload(out: str | None, payload: bytes) -> None:
    if out is None:
        sys.stdout.write(payload.decode())
        return
    target = Path(out)
    tmp = target.with_name(target.name + ".tmp")
    try:
        tmp.write_bytes(payload)
        os.replace(tmp, target)
    except OSError as exc:
        if tmp.is_file():
            tmp.unlink()
        raise ValueError(f"cannot write {out}: {exc}") from None


def _relation(kind_name: str, eps: Fraction, k: int | None) -> RelationSpec:
    kind = RelationKind(kind_name)
    if kind in _KINDS_WITH_K:
        if k is None:
            raise ValueError(f"--k is required for --relation {kind.value}")
    elif k is not None:
        raise ValueError(f"--k is not accepted for --relation {kind.value}")
    return RelationSpec(kind=kind, eps=eps, k=k)


def _node_limit(args: argparse.Namespace) -> int:
    if args.limit < 0:
        raise ValueError(f"--limit must be a nonnegative integer, got {args.limit}")
    return args.limit


def _cmd_gen(args: argparse.Namespace) -> int:
    instance = args.generate(args)  # bound by the family's subparser in build_parser
    _write_payload(args.out, save_instance(instance))
    _say(f"generated {args.family}: {len(instance)} solutions, p={instance.p}")
    return EXIT_OK


def _compute_members(args: argparse.Namespace, instance: Instance, spec: RelationSpec):
    """The ids --algo selects, unverified: _cmd_compute certifies them once."""
    algo = args.algo
    if algo == "grid":
        return _grid_members(instance, spec)
    if algo == "greedy-cover":
        return greedy_cover_dominating_set(domination_digraph(instance, spec))
    if algo == "gap":
        if spec.kind is not RelationKind.EPSILON:
            raise ValueError("--algo gap computes plain epsilon approximation sets")
        m = derive_value_bound(instance)
        found = construct_via_gap(functools.partial(gap_oracle, instance), spec.eps, m, instance.p)
        return [s.id for s in found]
    # biobjective sweeps
    if instance.p != 2:
        raise ValueError(f"--algo {algo} requires a biobjective instance")
    return _biobjective_sweep(instance, spec.eps, relaxed=algo == "bi-dual2")


def _cmd_compute(args: argparse.Namespace) -> int:
    spec = _relation(args.relation, args.eps, args.k)
    instance = _read_instance(args.instance)
    failure = f"computed set fails {spec.kind.value} verification at solution {{!r}}"
    aset = _certified(instance, _compute_members(args, instance, spec), spec, failure)
    _write_payload(args.out, save_set(aset))
    _say(f"{args.algo}: {len(aset.members)} members cover {len(instance)} solutions")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = _relation(args.relation, args.eps, args.k)
    instance = _read_instance(args.instance)
    members = _read_set(args.set, instance)
    certified = _certified(instance, members, spec, "NOT a valid set: solution {!r} is uncovered")
    _write_payload(args.out, save_set(certified))
    _say(f"verified: {len(members)} members cover {len(instance)} solutions")
    return EXIT_OK


def _cmd_min(args: argparse.Namespace) -> int:
    spec = _relation(args.relation, args.eps, args.k)
    limit = _node_limit(args)
    instance = _read_instance(args.instance)
    members = exact_min_dominating_set(domination_digraph(instance, spec), node_limit=limit)
    print(len(members))
    ordered = sorted(members, key=instance.position)
    _say(f"minimum {spec.kind.value} set ({len(members)}): {' '.join(ordered)}")
    return EXIT_OK


def _cmd_lift(args: argparse.Namespace) -> int:
    eps = _positive(args.eps, "eps")  # as RelationSpec checks it, before any input is read
    instance = _read_instance(args.instance)
    lifted = weakly_efficient_lift(instance, _read_set(args.set, instance), eps)
    _write_payload(args.out, save_set(lifted))
    _say(f"lifted to {len(lifted.members)} weakly efficient members")
    return EXIT_OK


def _stats_row(instance: Instance, spec: RelationSpec, limit: int | None) -> dict[str, object]:
    """One eps value's grid counts, plus exact minimum cardinalities unless limit is None."""
    bucketing, retained, picks = grid_select(instance, spec)
    row: dict[str, object] = {
        "eps": render_rational(spec.eps),
        "nonempty_cells": len(bucketing.cells),
        "retained_cells": len(retained),
        "nonempty_diagonals": len({diagonal_of(c) for c in bucketing.cells}),
        # None: no grid construction for this relation at this p
        "grid_members": None if picks is None else sum(map(len, picks)),
        "max_cell_set": None if picks is None else max(map(len, picks), default=0),
    }
    if limit is not None:  # one solve per distinct relation: under epsilon both are one problem
        eps_spec = RelationSpec(RelationKind.EPSILON, spec.eps)
        size = {s: len(exact_min_dominating_set(domination_digraph(instance, s), node_limit=limit))
                for s in dict.fromkeys((spec, eps_spec))}
        row["exact_min"], row["exact_min_epsilon"] = size[spec], size[eps_spec]
    return row


def _cmd_stats(args: argparse.Namespace) -> int:
    # each eps is checked as compute would check it alone, before any input is read
    specs = [_relation(args.relation, eps, args.k) for eps in args.eps]
    limit = _node_limit(args)  # checked as min checks it, used only under --exact
    instance = _read_instance(args.instance)
    if instance.solutions:  # the relation must be valid at this p, as min checks it
        specs[0].exact_rule(instance.p)
    summary = {
        "n": len(instance),
        "p": instance.p,
        "value_bound": derive_value_bound(instance),
        "efficient": len(efficient_set(instance)),
        "weakly_efficient": len(weakly_efficient_set(instance)),
    }
    rows = [_stats_row(instance, spec, limit if args.exact else None) for spec in specs]
    if args.csv:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(summary) + list(rows[0]))
        writer.writeheader()
        writer.writerows({**summary, **row} for row in rows)
        _write_payload(args.out, buf.getvalue().encode())
    else:
        _write_payload(args.out, (_dumps({"instance": summary, "grids": rows}) + "\n").encode())
    _say(f"stats over {len(rows)} eps value(s) for n={len(instance)}, p={instance.p}")
    return EXIT_OK


def _add_relation_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--relation",
        required=True,
        choices=[kind.value for kind in RelationKind],
        help="approximate-dominance relation",
    )
    parser.add_argument("--eps", type=parse_rational, required=True, help="rational eps > 0")
    parser.add_argument("--k", type=int, help="exact-component count for quasi-k kinds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mopareto",
        description="Exact partially exact approximation sets for explicit multiobjective instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen_sub = gen.add_subparsers(dest="family", required=True)
    g = gen_sub.add_parser("prop-dominated", help="six-point dominated-cover family")
    g.add_argument("--eps", type=parse_rational, required=True)
    g.set_defaults(generate=lambda a: gen_prop_dominated(a.eps))
    g = gen_sub.add_parser("prop-one-exact", help="first-component-exact chain family")
    g.add_argument("--delta", type=parse_rational, required=True)
    g.add_argument("--n", type=int, required=True)
    g.set_defaults(generate=lambda a: gen_prop_one_exact(a.delta, a.n))
    g = gen_sub.add_parser("quasi2-gap", help="three-objective cardinality-gap family")
    g.add_argument("--eps", type=parse_rational, required=True)
    g.add_argument("--n", type=int, required=True)
    g.set_defaults(generate=lambda a: gen_quasi2_gap(a.eps, a.n))
    g = gen_sub.add_parser("duplicated", help="lift a biobjective instance by duplicating objectives")
    g.add_argument("--base", required=True, help="biobjective instance file")
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--mode", required=True, choices=["one-exact-quasi2", "quasi-k-over-half"])
    g.set_defaults(generate=lambda a: gen_duplicated(
        _read_instance(a.base), a.p, a.mode.replace("-", "_")))
    g = gen_sub.add_parser("antichain", help="pairwise nondominated diagonal")
    g.add_argument("--n", type=int, required=True)
    g.set_defaults(generate=lambda a: gen_antichain(a.n))
    g = gen_sub.add_parser("random", help="seeded random instance")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--value-range", type=int, default=4, dest="value_range")
    g.set_defaults(generate=lambda a: gen_random(a.n, a.p, a.seed, a.value_range))
    for g_parser in gen_sub.choices.values():
        g_parser.add_argument("-o", "--out", help="output file (default: stdout)")
    gen.set_defaults(func=_cmd_gen)

    compute = sub.add_parser("compute", help="construct an approximation set")
    _add_relation_flags(compute)
    compute.add_argument(
        "--algo",
        required=True,
        choices=["grid", "greedy-cover", "gap", "bi-greedy", "bi-dual2"],
    )
    compute.add_argument("-i", "--instance", required=True)
    compute.add_argument("-o", "--out", help="output set file (default: stdout)")
    compute.set_defaults(func=_cmd_compute)

    verify = sub.add_parser("verify", help="verify a set file against an instance")
    _add_relation_flags(verify)
    verify.add_argument("-i", "--instance", required=True)
    verify.add_argument("--set", required=True, dest="set")
    verify.add_argument("-o", "--out", help="write the re-certified set here")
    verify.set_defaults(func=_cmd_verify)

    minimum = sub.add_parser("min", help="exact minimum cardinality (guarded)")
    _add_relation_flags(minimum)
    minimum.add_argument("-i", "--instance", required=True)
    minimum.add_argument("--limit", type=int, default=DEFAULT_NODE_LIMIT,
                         help="node limit (default %(default)s)")
    minimum.set_defaults(func=_cmd_min)

    lift = sub.add_parser("lift", help="replace dominated members by weakly efficient dominators")
    lift.add_argument("--eps", type=parse_rational, required=True)
    lift.add_argument("-i", "--instance", required=True)
    lift.add_argument("--set", required=True, dest="set")
    lift.add_argument("-o", "--out", help="output set file (default: stdout)")
    lift.set_defaults(func=_cmd_lift)

    stats = sub.add_parser("stats", help="grid, efficiency, and cardinality statistics")
    stats.add_argument("--eps", type=parse_rational, required=True, nargs="+")
    stats.add_argument(
        "--relation",
        default=RelationKind.EPSILON.value,
        choices=[kind.value for kind in RelationKind],
    )
    stats.add_argument("--k", type=int)
    stats.add_argument("--exact", action="store_true", help="include exact minimum cardinalities")
    stats.add_argument("--csv", action="store_true", help="emit a plot-ready CSV table")
    stats.add_argument("--limit", type=int, default=DEFAULT_NODE_LIMIT)
    stats.add_argument("-i", "--instance", required=True)
    stats.add_argument("-o", "--out", help="output file (default: stdout)")
    stats.set_defaults(func=_cmd_stats)

    return parser


# built once per process: parsing does not change the parser
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except VerificationFailed as exc:  # before ValueError, its base class
        print(exc.counterexample)
        _say(str(exc))
        return EXIT_UNVERIFIED
    except NodeLimitExceeded as exc:
        _say(f"exact-solver limit: {exc}")
        return EXIT_LIMIT
    except QueryLimitExceeded as exc:
        _say(f"gap-query limit: {exc}")
        return EXIT_LIMIT
    except FormatError as exc:
        _say(f"bad input file: {exc}")
        return EXIT_BAD_INPUT
    except ValueError as exc:
        _say(f"usage error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
