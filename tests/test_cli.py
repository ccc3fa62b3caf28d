import json
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mopareto import cli, constructors, oracles
from mopareto.cli import main
from mopareto.constructors import (
    UnsupportedRelationError,
    construct_grid_approx,
    construct_via_gap,
    verify_approximation,
)
from mopareto.dominance import domination_digraph
from mopareto.domsets import (
    DEFAULT_NODE_LIMIT,
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
from mopareto.grid import bucket
from mopareto.model import (
    RelationKind,
    RelationSpec,
    derive_value_bound,
    load_instance,
    load_set,
    save_instance,
    save_set,
)
from mopareto.oracles import dual_restrict_2approx, gap_oracle, greedy_biobjective_min


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def dominated_family(tmp_path):
    path = tmp_path / "p1.json"
    assert run("gen", "prop-dominated", "--eps", "1", "-o", str(path)) == 0
    return path


# each gen family's flags, and the library call they stand for ("BASE": gen_antichain(3)'s file)
GEN_CASES = [
    (["prop-dominated", "--eps", "1/2"], lambda: gen_prop_dominated(Fraction(1, 2))),
    (["prop-one-exact", "--delta", "1/10", "--n", "2"],
     lambda: gen_prop_one_exact(Fraction(1, 10), 2)),
    (["quasi2-gap", "--eps", "1", "--n", "4"], lambda: gen_quasi2_gap(Fraction(1), 4)),
    (["duplicated", "--base", "BASE", "--p", "4", "--mode", "quasi-k-over-half"],
     lambda: gen_duplicated(gen_antichain(3), 4, "quasi_k_over_half")),
    (["antichain", "--n", "5"], lambda: gen_antichain(5)),
    (["random", "--n", "9", "--p", "3", "--seed", "4", "--value-range", "6"],
     lambda: gen_random(9, 3, 4, 6)),
]


class TestGen:
    def test_families_write_loadable_instances(self, tmp_path):
        cases = [
            (["gen", "prop-dominated", "--eps", "1/2"], 6),
            (["gen", "prop-one-exact", "--delta", "1/10", "--n", "2"], 7),
            (["gen", "quasi2-gap", "--eps", "1", "--n", "4"], 5),
            (["gen", "antichain", "--n", "5"], 5),
            (["gen", "random", "--n", "9", "--p", "3", "--seed", "4"], 9),
        ]
        for argv, expected in cases:
            out = tmp_path / "out.json"
            assert run(*argv, "-o", str(out)) == 0
            assert len(load_instance(out.read_bytes())) == expected

    def test_duplicated_needs_base_file(self, tmp_path):
        base = tmp_path / "base.json"
        run("gen", "antichain", "--n", "4", "-o", str(base))
        out = tmp_path / "lifted.json"
        assert (
            run(
                "gen", "duplicated", "--base", str(base), "--p", "3",
                "--mode", "one-exact-quasi2", "-o", str(out),
            )
            == 0
        )
        inst = load_instance(out.read_bytes())
        assert inst.p == 3

    def test_stdout_when_no_out_file(self, capsys):
        assert run("gen", "antichain", "--n", "2") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["p"] == 2

    @pytest.mark.parametrize("argv, generate", GEN_CASES, ids=[a[0] for a, _ in GEN_CASES])
    def test_each_family_writes_its_library_generators_bytes(self, tmp_path, argv, generate):
        base, out = tmp_path / "base.json", tmp_path / "out.json"
        base.write_bytes(save_instance(gen_antichain(3)))
        argv = [str(base) if a == "BASE" else a for a in argv]
        assert run("gen", *argv, "-o", str(out)) == 0
        assert out.read_bytes() == save_instance(generate())


class TestComputeAndVerify:
    def test_grid_compute_then_verify_round_trip(self, dominated_family, tmp_path):
        set_path = tmp_path / "set.json"
        assert (
            run(
                "compute", "--relation", "quasi-k", "--k", "1", "--eps", "1",
                "--algo", "grid", "-i", str(dominated_family), "-o", str(set_path),
            )
            == 0
        )
        assert (
            run(
                "verify", "--relation", "quasi-k", "--k", "1", "--eps", "1",
                "-i", str(dominated_family), "--set", str(set_path),
            )
            == 0
        )

    def test_compute_output_is_byte_deterministic(self, dominated_family, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run(
                "compute", "--relation", "epsilon", "--eps", "1",
                "--algo", "greedy-cover", "-i", str(dominated_family), "-o", str(path),
            )
        assert a.read_bytes() == b.read_bytes()

    def test_all_algorithms_verify_their_own_output(self, dominated_family, tmp_path):
        for algo in ("grid", "greedy-cover", "gap", "bi-greedy", "bi-dual2"):
            set_path = tmp_path / f"{algo}.json"
            assert (
                run(
                    "compute", "--relation", "epsilon", "--eps", "1",
                    "--algo", algo, "-i", str(dominated_family), "-o", str(set_path),
                )
                == 0
            ), algo
            assert (
                run(
                    "verify", "--relation", "epsilon", "--eps", "1",
                    "-i", str(dominated_family), "--set", str(set_path),
                )
                == 0
            ), algo

    def test_every_algorithm_covers_an_empty_instance_with_the_empty_set(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text('{"p": 2, "solutions": []}')
        for algo in ("grid", "greedy-cover", "gap", "bi-greedy", "bi-dual2"):
            set_path = tmp_path / f"{algo}.json"
            assert (
                run(
                    "compute", "--relation", "epsilon", "--eps", "1",
                    "--algo", algo, "-i", str(empty), "-o", str(set_path),
                )
                == 0
            ), algo
            aset = load_set(set_path.read_bytes())
            assert aset.members == () and aset.certificate == (), algo

    def test_verify_failure_exits_4_and_prints_counterexample(
        self, dominated_family, tmp_path, capsys
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"relation": {"kind": "quasi-k", "eps": "1", "k": 1}, "members": ["x5"]}'
        )
        code = run(
            "verify", "--relation", "quasi-k", "--k", "1", "--eps", "1",
            "-i", str(dominated_family), "--set", str(bad),
        )
        assert code == 4
        assert capsys.readouterr().out.strip() == "x2"

    def test_certified_set_written_on_verify(self, dominated_family, tmp_path):
        raw = tmp_path / "raw.json"
        raw.write_text(
            '{"relation": {"kind": "quasi-k", "eps": "1", "k": 1}, "members": ["x5", "x6"]}'
        )
        out = tmp_path / "certified.json"
        assert (
            run(
                "verify", "--relation", "quasi-k", "--k", "1", "--eps", "1",
                "-i", str(dominated_family), "--set", str(raw), "-o", str(out),
            )
            == 0
        )
        aset = load_set(out.read_bytes())
        assert len(aset.certificate) == 6

    def test_gap_algo_requires_epsilon_relation(self, dominated_family):
        code = run(
            "compute", "--relation", "one-exact", "--eps", "1",
            "--algo", "gap", "-i", str(dominated_family),
        )
        assert code == 2

    def test_gap_query_limit_exits_5_before_any_query(self, tmp_path, capsys):
        # values span [1/16, 16], so M=4; at eps=1/2 the sweep has 30 levels,
        # and the count stops at 16 levels, the first with 16**5 > 10**6 queries
        path = tmp_path / "p5.json"
        path.write_text(json.dumps({"p": 5, "solutions": [
            {"id": "lo", "f": ["1/16"] * 5},
            {"id": "hi", "f": ["16"] * 5},
        ]}))
        code = run(
            "compute", "--relation", "epsilon", "--eps", "1/2",
            "--algo", "gap", "-i", str(path),
        )
        assert code == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "gap-query limit: 1048576 or more budget queries (16 or more levels, p=5) "
            "exceed the gap-query limit 1000000\n"
        )

    @pytest.mark.parametrize("p, levels", [(2, 1001), (3, 101)])
    def test_a_ladder_of_billions_exits_5_before_any_query(self, p, levels, tmp_path, capsys,
                                                            monkeypatch):
        def refusing_oracle(instance, query):
            raise AssertionError("no query may be issued over the limit")

        monkeypatch.setattr(cli, "gap_oracle", refusing_oracle)
        path = tmp_path / "r.json"
        path.write_bytes(save_instance(gen_random(10, p, seed=1)))
        code = run(
            "compute", "--relation", "epsilon", "--eps", "1/1000000000",
            "--algo", "gap", "-i", str(path),
        )
        assert code == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"gap-query limit: {levels**p} or more budget queries ({levels} or more levels, p={p})"
        )

    @pytest.mark.parametrize("algo", ["bi-greedy", "bi-dual2"])
    def test_biobjective_sweeps_refuse_three_objectives(self, algo, tmp_path, capsys):
        path = tmp_path / "r3.json"
        path.write_bytes(save_instance(gen_random(6, 3, seed=1)))
        code = run("compute", "--relation", "epsilon", "--eps", "1", "--algo", algo, "-i", str(path))
        assert code == 2
        assert capsys.readouterr().err == (
            f"usage error: --algo {algo} requires a biobjective instance\n"
        )


class TestMin:
    def test_dominated_family_quasi_one_minimum(self, dominated_family, capsys):
        code = run(
            "min", "--relation", "quasi-k", "--k", "1", "--eps", "1",
            "-i", str(dominated_family),
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_limit_exceeded_exits_5(self, dominated_family):
        code = run(
            "min", "--relation", "epsilon", "--eps", "1",
            "-i", str(dominated_family), "--limit", "3",
        )
        assert code == 5

    def test_limit_flag_admits_the_instance(self, dominated_family, capsys):
        code = run(
            "min", "--relation", "epsilon", "--eps", "1",
            "-i", str(dominated_family), "--limit", "10",
        )
        assert code == 0
        assert capsys.readouterr().out.strip().isdigit()


    def test_limit_defaults_to_the_solver_default(self, dominated_family, monkeypatch, capsys):
        for argv in (
            ["min", "--relation", "epsilon", "--eps", "1", "-i", "x.json"],
            ["stats", "--eps", "1", "-i", "x.json"],
        ):
            assert cli._parser().parse_args(argv).limit == DEFAULT_NODE_LIMIT
        with pytest.raises(SystemExit):
            run("min", "--help")
        assert f"node limit (default {DEFAULT_NODE_LIMIT})" in capsys.readouterr().out
        # the former MOPARETO_EXACT_LIMIT variable is not read: --limit is the one setting
        monkeypatch.setenv("MOPARETO_EXACT_LIMIT", "3")
        assert run("min", "--relation", "epsilon", "--eps", "1", "-i", str(dominated_family)) == 0


class TestLift:
    def test_lift_produces_weakly_efficient_quasi_one_set(self, dominated_family, tmp_path):
        raw = tmp_path / "raw.json"
        raw.write_text(
            '{"relation": {"kind": "epsilon", "eps": "1"}, "members": ["x5", "x6"]}'
        )
        out = tmp_path / "lifted.json"
        assert (
            run(
                "lift", "--eps", "1", "-i", str(dominated_family),
                "--set", str(raw), "-o", str(out),
            )
            == 0
        )
        lifted = load_set(out.read_bytes())
        assert lifted.members == ("x2", "x3")
        assert lifted.relation.kind.value == "quasi-k" and lifted.relation.k == 1

    def test_lift_rejects_non_covering_input(self, dominated_family, tmp_path, capsys):
        raw = tmp_path / "raw.json"
        raw.write_text('{"relation": {"kind": "epsilon", "eps": "1"}, "members": ["x1"]}')
        assert (
            run("lift", "--eps", "1", "-i", str(dominated_family), "--set", str(raw))
            == 4
        )
        captured = capsys.readouterr()
        assert captured.out == "x3\n"
        assert captured.err == "input set fails epsilon coverage at solution 'x3'\n"


class TestStats:
    def test_json_stats(self, dominated_family, capsys):
        assert (
            run("stats", "-i", str(dominated_family), "--eps", "1", "--exact") == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["instance"]["n"] == 6
        row = payload["grids"][0]
        assert row["retained_cells"] >= 1
        assert row["exact_min"] == row["exact_min_epsilon"] == 2

    def test_csv_sweep(self, dominated_family, capsys):
        assert (
            run(
                "stats", "-i", str(dominated_family), "--csv",
                "--eps", "1/2", "1", "2",
            )
            == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4  # header + one row per eps
        assert lines[0].startswith("n,p,value_bound,efficient")

    def test_relations_without_grid_construction_report_no_members(
        self, dominated_family, capsys
    ):
        assert (
            run("stats", "-i", str(dominated_family), "--relation", "two-exact", "--eps", "1")
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        row = payload["grids"][0]
        assert row["grid_members"] is None
        assert row["nonempty_cells"] >= 1


    def test_the_json_output_is_indented_json_dumps(self, dominated_family, tmp_path, capsys):
        argv = ["stats", "-i", str(dominated_family), "--relation", "two-exact", "--exact",
                "--eps", "1/2", "1"]
        assert run(*argv) == 0
        out = capsys.readouterr().out
        assert '"grid_members": null' in out  # no grid construction for two-exact
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        written = tmp_path / "stats.json"
        assert run(*argv, "-o", str(written)) == 0
        assert written.read_text() == out

    def test_empty_instance_reports_zero_counts(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text('{"p": 2, "solutions": []}')
        assert run("stats", "-i", str(empty), "--eps", "1", "--exact") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["instance"] == {
            "n": 0, "p": 2, "value_bound": 0, "efficient": 0, "weakly_efficient": 0,
        }
        assert payload["grids"] == [{
            "eps": "1", "nonempty_cells": 0, "retained_cells": 0, "nonempty_diagonals": 0,
            "grid_members": 0, "max_cell_set": 0, "exact_min": 0, "exact_min_epsilon": 0,
        }]
        assert run("stats", "-i", str(empty), "--csv", "--eps", "1/2", "1") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == ["0,2,0,0,0,1/2,0,0,0,0,0", "0,2,0,0,0,1,0,0,0,0,0"]


def _largest_cell_pick(instance, members, eps):
    cell_of = {i: cell for cell, ids in bucket(instance, eps).cells.items() for i in ids}
    return max(Counter(cell_of[m] for m in members).values())


class TestStatsSolvesEachRelationOnce:
    """`stats --exact` solves the epsilon minimum again only under another relation."""

    @pytest.mark.parametrize(
        "kind, k_args",
        [("epsilon", []), ("one-exact", []), ("two-exact", []),
         ("quasi-k", ["--k", "1"]), ("one-exact-quasi-k", ["--k", "1"])],
    )
    def test_solver_calls_per_eps(self, kind, k_args, dominated_family, monkeypatch, capsys):
        calls = []

        def counting(graph, node_limit):
            calls.append(graph)
            return exact_min_dominating_set(graph, node_limit=node_limit)

        monkeypatch.setattr(cli, "exact_min_dominating_set", counting)
        eps = ["1/2", "1", "2"]
        argv = ["stats", "-i", str(dominated_family), "--relation", kind, *k_args, "--exact"]
        assert run(*argv, "--eps", *eps) == 0
        assert len(calls) == len(eps) * (1 if kind == "epsilon" else 2)
        instance = load_instance(dominated_family.read_bytes())
        k = int(k_args[1]) if k_args else None
        for row, e in zip(json.loads(capsys.readouterr().out)["grids"], eps):
            spec = RelationSpec(RelationKind(kind), Fraction(e), k)
            eps_spec = RelationSpec(RelationKind.EPSILON, Fraction(e))
            assert row["exact_min"] == len(exact_min_dominating_set(domination_digraph(instance, spec)))
            assert row["exact_min_epsilon"] == len(
                exact_min_dominating_set(domination_digraph(instance, eps_spec))
            )


class TestStatsRelationFlags:
    """`stats` checks --relation, --k and every --eps as `compute` does, before reading input."""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--relation", "epsilon", "--k", "2", "--eps", "1"],
             "--k is not accepted for --relation epsilon"),
            (["--relation", "quasi-k", "--eps", "1"], "--k is required for --relation quasi-k"),
            (["--relation", "epsilon", "--eps", "0"], "eps must be positive"),
            (["--relation", "quasi-k", "--k", "0", "--eps", "1"], "k must be at least 1"),
        ],
    )
    def test_bad_flags_exit_2_with_the_compute_message(self, flags, message, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert run("stats", *flags, "-i", missing) == 2
        stats_err = capsys.readouterr().err
        assert stats_err == f"usage error: {message}\n"
        assert run("compute", "--algo", "grid", *flags, "-i", missing) == 2
        assert capsys.readouterr().err == stats_err

    @pytest.mark.parametrize("kind", [kind.value for kind in RelationKind])
    def test_k_goes_with_the_quasi_kinds_only(self, kind, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        for command in (["stats"], ["compute", "--algo", "grid"]):
            argv = [*command, "--relation", kind, "--eps", "1", "-i", missing]
            if kind in ("quasi-k", "one-exact-quasi-k"):
                assert run(*argv) == 2
                assert capsys.readouterr().err == f"usage error: --k is required for --relation {kind}\n"
            else:
                assert run(*argv, "--k", "1") == 2
                assert capsys.readouterr().err == (
                    f"usage error: --k is not accepted for --relation {kind}\n"
                )

    def test_every_eps_is_checked(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert run("stats", "--eps", "1", "1/2", "0", "-i", missing) == 2
        assert capsys.readouterr().err == "usage error: eps must be positive\n"


class TestGridCallersAgree:
    """`stats` and `compute --algo grid` select per cell through one definition."""

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_stats_counts_match_the_grid_construction(self, p, tmp_path, capsys):
        instance = gen_random(100, p, seed=10 + p, value_range=2)  # crowded cells
        path = tmp_path / "r.json"
        path.write_bytes(save_instance(instance))
        supported = [("epsilon", None), ("one-exact", None)] + [
            ("quasi-k", k) for k in range(1, (p + 1) // 2 + 1)
        ]
        for kind, k in supported:
            k_args = ["--k", str(k)] if k else []
            for eps in ("1/2", "4"):
                assert run("stats", "-i", str(path), "--relation", kind, *k_args, "--eps", eps) == 0
                row = json.loads(capsys.readouterr().out)["grids"][0]
                spec = RelationSpec(RelationKind(kind), Fraction(eps), k)
                members = construct_grid_approx(instance, spec).members
                assert row["grid_members"] == len(members), (kind, k, eps)
                assert row["max_cell_set"] == _largest_cell_pick(instance, members, spec.eps)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_unsupported_relations(self, p, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_bytes(save_instance(gen_random(20, p, seed=p)))
        for kind, k_args in [("two-exact", []), ("one-exact-quasi-k", ["--k", "1"])]:
            assert run("stats", "-i", str(path), "--relation", kind, *k_args, "--eps", "1") == 0
            row = json.loads(capsys.readouterr().out)["grids"][0]
            assert row["grid_members"] is None and row["max_cell_set"] is None
        too_big = str((p + 1) // 2 + 1)
        assert run("stats", "-i", str(path), "--relation", "quasi-k", "--k", too_big,
                   "--eps", "1") == 0
        row = json.loads(capsys.readouterr().out)["grids"][0]
        assert row["grid_members"] is None and row["max_cell_set"] is None
        grid = ["compute", "--algo", "grid", "--eps", "1", "-i", str(path)]
        assert run(*grid, "--relation", "two-exact") == 2
        assert capsys.readouterr().err == (
            "usage error: no general grid construction for two-exact sets\n"
        )
        assert run(*grid, "--relation", "quasi-k", "--k", too_big) == 2
        assert capsys.readouterr().err == (
            f"usage error: quasi-k grid construction needs k <= ceil(p/2) = {(p + 1) // 2}, "
            f"got k={too_big}\n"
        )


class TestStatsReportsEveryValidRelation:
    """`stats` reads grid support from the one grid rule and validity from the model."""

    def test_quasi_k_over_half_lift_gets_exact_minima(self, tmp_path, capsys):
        base, lifted = tmp_path / "a.json", tmp_path / "d.json"
        assert run("gen", "antichain", "--n", "6", "-o", str(base)) == 0
        assert run("gen", "duplicated", "--base", str(base), "--p", "4",
                   "--mode", "quasi-k-over-half", "-o", str(lifted)) == 0
        capsys.readouterr()
        argv = ["stats", "--exact", "--relation", "quasi-k", "--k", "3", "--eps", "1"]
        assert run(*argv, "-i", str(lifted)) == 0
        row = json.loads(capsys.readouterr().out)["grids"][0]
        assert row["grid_members"] is None and row["max_cell_set"] is None
        assert row["exact_min"] == 6 and row["exact_min_epsilon"] == 2

    @pytest.mark.parametrize(
        "p, relation, message",
        [
            (1, ["--relation", "two-exact"], "two-exact dominance needs at least two objectives"),
            (2, ["--relation", "one-exact-quasi-k", "--k", "5"],
             "k=5 exceeds the number of objectives p=2"),
        ],
    )
    def test_invalid_relation_exits_2_with_the_model_message(
        self, p, relation, message, tmp_path, capsys
    ):
        path, empty = tmp_path / "r.json", tmp_path / "empty.json"
        path.write_bytes(save_instance(gen_random(8, p, seed=p)))
        empty.write_text(json.dumps({"p": p, "solutions": []}))
        for exact in ([], ["--exact"]):
            argv = ["stats", *relation, "--eps", "1", *exact]
            assert run(*argv, "-i", str(path)) == 2
            assert capsys.readouterr().err == f"usage error: {message}\n"
            assert run(*argv, "-i", str(empty)) == 0
            row = json.loads(capsys.readouterr().out)["grids"][0]
            assert row["grid_members"] is None and row["max_cell_set"] is None
        assert run("min", *relation, "--eps", "1", "-i", str(path)) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"


class TestRepeatedMainCalls:
    def test_one_parser_serves_every_call_and_keeps_no_state(
        self, dominated_family, tmp_path
    ):
        six = ["--relation", "epsilon", "--eps", "1", "-i", str(dominated_family)]
        wide = tmp_path / "wide.json"
        assert run("gen", "antichain", "--n", "26", "-o", str(wide)) == 0
        with pytest.raises(SystemExit) as info:
            run("min", "--relation", "epsilon", "--eps", "nonsense", "-i", str(dominated_family))
        assert info.value.code == 2
        assert run("min", "--relation", "quasi-k", "--eps", "1", "-i", str(dominated_family)) == 2
        assert run("min", "--relation", "quasi-k", "--k", "1", "--eps", "1",
                   "-i", str(dominated_family)) == 0
        assert run("min", *six, "--limit", "1") == 5
        # neither --k nor --limit carries over: the default limit 25 holds again
        assert run("min", *six) == 0
        assert run("min", "--relation", "epsilon", "--eps", "1", "-i", str(wide)) == 5
        assert run("min", "--relation", "epsilon", "--eps", "1",
                   "-i", str(wide), "--limit", "26") == 0
        assert run("min", *six) == 0
        assert run("min", "--relation", "epsilon", "--eps", "1", "-i", str(wide)) == 5
        assert cli._parser() is cli._parser()


ALGOS = ("grid", "greedy-cover", "gap", "bi-greedy", "bi-dual2")

RELATIONS = [
    ("epsilon", None),
    ("one-exact", None),
    ("two-exact", None),
    ("quasi-k", 1),
    ("quasi-k", 2),
    ("one-exact-quasi-k", 1),
]


def _public_members(algo, instance, spec):
    """The members each --algo's public constructor returns, for the differential."""
    if algo == "grid":
        return construct_grid_approx(instance, spec).members
    if algo == "greedy-cover":
        return greedy_cover_dominating_set(domination_digraph(instance, spec))
    if algo == "gap":
        m = derive_value_bound(instance)
        found = construct_via_gap(lambda q: gap_oracle(instance, q), spec.eps, m, instance.p)
        return [s.id for s in found]
    sweep = greedy_biobjective_min if algo == "bi-greedy" else dual_restrict_2approx
    return sweep(instance, spec.eps).members


class TestComputeCertifiesOnce:
    """`compute` verifies each set once, under the requested relation, for every --algo."""

    @pytest.fixture()
    def verify_calls(self, monkeypatch):
        calls = []

        def counting(instance, members, spec):
            calls.append(spec)
            return verify_approximation(instance, members, spec)

        for module in (cli, constructors, oracles):
            monkeypatch.setattr(module, "verify_approximation", counting, raising=False)
        return calls

    @pytest.mark.parametrize("algo", ALGOS)
    def test_one_verification_per_compute(self, algo, verify_calls, tmp_path):
        path = tmp_path / "r.json"
        path.write_bytes(save_instance(gen_random(40, 2, seed=3)))
        spec = RelationSpec(RelationKind.EPSILON, Fraction(1, 2))
        argv = ["compute", "--relation", "epsilon", "--eps", "1/2", "--algo", algo]
        assert run(*argv, "-i", str(path), "-o", str(tmp_path / "s.json")) == 0
        assert verify_calls == [spec]

    @pytest.mark.parametrize(
        "algo, p", [(a, 2) for a in ALGOS] + [(a, 3) for a in ALGOS if not a.startswith("bi-")]
    )
    def test_set_file_is_the_public_constructors_members_verified(
        self, algo, p, tmp_path, capsys
    ):
        instance = gen_random(30, p, seed=20 + p)
        path = tmp_path / "r.json"
        path.write_bytes(save_instance(instance))
        out = tmp_path / "s.json"
        relations = RELATIONS[:1] if algo == "gap" else RELATIONS
        for kind, k in relations:
            k_args = ["--k", str(k)] if k else []
            spec = RelationSpec(RelationKind(kind), Fraction(1, 2), k)
            argv = ["compute", "--relation", kind, *k_args, "--eps", "1/2", "--algo", algo]
            code = run(*argv, "-i", str(path), "-o", str(out))
            captured = capsys.readouterr()
            try:
                members = _public_members(algo, instance, spec)
            except UnsupportedRelationError as exc:
                assert code == 2 and captured.err == f"usage error: {exc}\n", (kind, k)
                continue
            result = verify_approximation(instance, members, spec)
            if result.ok:
                assert code == 0, (kind, k)
                assert out.read_bytes() == save_set(result.approximation), (kind, k)
            else:
                assert code == 4, (kind, k)
                assert captured.out == f"{result.counterexample}\n", (kind, k)
                assert captured.err == (
                    f"computed set fails {kind} verification at solution "
                    f"{result.counterexample!r}\n"
                ), (kind, k)

    def test_unsound_grid_selection_exits_4_with_the_counterexample(
        self, tmp_path, capsys, monkeypatch
    ):
        # antichain points with eps 1/8 sit in distinct cells and cover only themselves
        path = tmp_path / "a.json"
        path.write_bytes(save_instance(gen_antichain(12)))
        select = constructors.grid_select

        def dropping_one_pick(instance, spec):
            bucketing, retained, picks = select(instance, spec)
            return bucketing, retained, [picks[0][1:], *picks[1:]]

        monkeypatch.setattr(constructors, "grid_select", dropping_one_pick)
        argv = ["compute", "--relation", "epsilon", "--eps", "1/8", "--algo", "grid"]
        assert run(*argv, "-i", str(path)) == 4
        captured = capsys.readouterr()
        assert captured.out == "a1\n"
        assert captured.err == "computed set fails epsilon verification at solution 'a1'\n"


class TestFailureModes:
    def test_missing_instance_file_exits_3(self, tmp_path):
        assert (
            run("min", "--relation", "epsilon", "--eps", "1", "-i", str(tmp_path / "no.json"))
            == 3
        )

    def test_instance_entry_without_f_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"p": 1, "solutions": [{"id": "a"}]}')
        assert run("min", "--relation", "epsilon", "--eps", "1", "-i", str(bad)) == 3
        assert capsys.readouterr().err == (
            'bad input file: solution entries need "id" and "f": {\'id\': \'a\'}\n'
        )

    def test_malformed_instance_exits_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"p": 1, "solutions": [{"id": "a", "f": ["0"]}]}')
        assert run("min", "--relation", "epsilon", "--eps", "1", "-i", str(bad)) == 3

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as info:
            run("compute", "--relation", "epsilon", "--eps", "nonsense", "--algo", "grid", "-i", "x")
        assert info.value.code == 2

    def test_missing_k_for_quasi_relation_exits_2(self, dominated_family):
        assert (
            run("min", "--relation", "quasi-k", "--eps", "1", "-i", str(dominated_family))
            == 2
        )

    def test_unsupported_grid_relation_exits_2(self, dominated_family):
        assert (
            run(
                "compute", "--relation", "two-exact", "--eps", "1",
                "--algo", "grid", "-i", str(dominated_family),
            )
            == 2
        )

    def test_directory_input_paths_exit_3(self, dominated_family, tmp_path, capsys):
        rel = ["--relation", "epsilon", "--eps", "1"]
        for argv in (
            ["compute", *rel, "--algo", "grid", "-i", str(tmp_path)],
            ["verify", *rel, "-i", str(dominated_family), "--set", str(tmp_path)],
            ["lift", "--eps", "1", "-i", str(dominated_family), "--set", str(tmp_path)],
            ["gen", "duplicated", "--base", str(tmp_path), "--p", "3",
             "--mode", "one-exact-quasi2"],
        ):
            assert run(*argv) == 3, argv
            assert capsys.readouterr().err.startswith("bad input file: "), argv

    def test_files_in_no_json_encoding_exit_3(self, dominated_family, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        rel = ["--relation", "epsilon", "--eps", "1"]
        for argv in (
            ["compute", *rel, "--algo", "grid", "-i", str(bad)],
            ["verify", *rel, "-i", str(dominated_family), "--set", str(bad)],
        ):
            assert run(*argv) == 3, argv
            assert capsys.readouterr().err.startswith("bad input file: invalid JSON: "), argv

    def test_boolean_p_exits_3(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text('{"p": true, "solutions": [{"id": "a", "f": ["1"]}]}')
        argv = ["compute", "--relation", "epsilon", "--eps", "1", "--algo", "grid"]
        assert run(*argv, "-i", str(path)) == 3

    def test_negative_node_limits_are_usage_errors(self, dominated_family, capsys):
        six = ["--relation", "epsilon", "--eps", "1", "-i", str(dominated_family)]
        assert run("min", *six, "--limit", "-1") == 2
        assert capsys.readouterr().err == (
            "usage error: --limit must be a nonnegative integer, got -1\n"
        )
        assert run("stats", *six, "--exact", "--limit", "-1") == 2
        assert capsys.readouterr().err == (
            "usage error: --limit must be a nonnegative integer, got -1\n"
        )

    def test_stats_checks_the_limit_before_reading_and_uses_it_only_under_exact(
        self, dominated_family, tmp_path, capsys
    ):
        missing = str(tmp_path / "missing.json")
        for exact in ([], ["--exact"]):
            assert run("stats", "--eps", "1", *exact, "--limit", "-1", "-i", missing) == 2
            assert capsys.readouterr().err == (
                "usage error: --limit must be a nonnegative integer, got -1\n"
            )
        six = ["--eps", "1", "-i", str(dominated_family), "--limit", "0"]
        assert run("stats", *six) == 0
        assert "exact_min" not in json.loads(capsys.readouterr().out)["grids"][0]
        assert run("stats", *six, "--exact") == 5

    def test_node_limit_zero_is_allowed(self, dominated_family, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text('{"p": 2, "solutions": []}')
        rel = ["--relation", "epsilon", "--eps", "1"]
        assert run("min", *rel, "-i", str(empty), "--limit", "0") == 0
        assert run("min", *rel, "-i", str(dominated_family), "--limit", "0") == 5

    def test_output_in_a_missing_directory_is_a_usage_error(
        self, dominated_family, tmp_path, capsys
    ):
        target = tmp_path / "missing_dir" / "x.json"
        argv = ["compute", "--relation", "epsilon", "--eps", "1", "--algo", "grid"]
        assert run(*argv, "-i", str(dominated_family), "-o", str(target)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: cannot write {target}: "), err
        assert not list(tmp_path.rglob("*.tmp"))

    def test_output_naming_a_directory_is_a_usage_error(
        self, dominated_family, tmp_path, capsys
    ):
        target = tmp_path / "existing"
        target.mkdir()
        argv = ["compute", "--relation", "epsilon", "--eps", "1", "--algo", "grid"]
        assert run(*argv, "-i", str(dominated_family), "-o", str(target)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: cannot write {target}: "), err
        assert not list(tmp_path.rglob("*.tmp"))
        assert target.is_dir() and not any(target.iterdir())

    def test_lift_checks_eps_before_reading_input(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert run("lift", "--eps", "0", "-i", missing, "--set", missing) == 2
        assert capsys.readouterr().err == "usage error: eps must be positive\n"

    @pytest.mark.parametrize("command", ["verify", "lift"])
    def test_unknown_set_member_is_a_bad_set_file(
        self, command, dominated_family, tmp_path, capsys
    ):
        raw = tmp_path / "raw.json"
        raw.write_text(
            '{"relation": {"kind": "epsilon", "eps": "1"}, "members": ["x1", "zz", "yy"]}'
        )
        flags = ["--relation", "epsilon"] if command == "verify" else []
        argv = [command, *flags, "--eps", "1", "-i", str(dominated_family), "--set", str(raw)]
        assert run(*argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "bad input file: set file: unknown solution id: 'zz'\n"


class TestRuleCheckedOnlyAtAComparedPair:
    """two-exact and quasi-k --k 2 cannot apply at p = 1; verify exits by what it compares."""

    RELATIONS = [["--relation", "two-exact"], ["--relation", "quasi-k", "--k", "2"]]

    @staticmethod
    def files(tmp_path, solutions, members):
        instance, set_file = tmp_path / "i.json", tmp_path / "s.json"
        instance.write_text(json.dumps({"p": 1, "solutions": solutions}))
        set_file.write_text(
            json.dumps({"relation": {"kind": "epsilon", "eps": "1"}, "members": members})
        )
        return ["-i", str(instance), "--set", str(set_file)]

    @pytest.mark.parametrize("relation", RELATIONS)
    def test_empty_instance_verifies(self, relation, tmp_path):
        assert run("verify", *relation, "--eps", "1", *self.files(tmp_path, [], [])) == 0

    @pytest.mark.parametrize("relation", RELATIONS)
    def test_empty_set_fails_at_the_first_solution(self, relation, tmp_path, capsys):
        solutions = [{"id": "a", "f": ["2"]}, {"id": "b", "f": ["1"]}]
        assert run("verify", *relation, "--eps", "1", *self.files(tmp_path, solutions, [])) == 4
        assert capsys.readouterr().out == "a\n"

    @pytest.mark.parametrize(
        "relation, message",
        [
            (RELATIONS[0], "two-exact dominance needs at least two objectives"),
            (RELATIONS[1], "k=2 exceeds the number of objectives p=1"),
        ],
    )
    def test_nonempty_set_is_a_usage_error(self, relation, message, tmp_path, capsys):
        solutions = [{"id": "a", "f": ["2"]}, {"id": "b", "f": ["1"]}]
        argv = ["verify", *relation, "--eps", "1", *self.files(tmp_path, solutions, ["b"])]
        assert run(*argv) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"


_FAMILY_IDS = ["x1", "x2", "x3", "x4", "x5", "x6"]
_ENTRY_KEYS = ["covered", "by", "exact_indices"]
# any JSON tree, with the ids and keys of a certificate entry drawn often
_JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(_FAMILY_IDS) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_ENTRY_KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
_NOT_A_LIST = 'bad input file: "certificate" must be a list of entries\n'


class TestHostileCertificates:
    """A set file's "certificate" is checked for shape only; whatever it holds,
    verify and lift exit 0, 3 or 4 and never raise."""

    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(st.lists(st.sampled_from(_FAMILY_IDS), unique=True), _JSON_TREES)
    @example(_FAMILY_IDS, 5)
    @example(_FAMILY_IDS, None)
    @example(_FAMILY_IDS, True)
    @example(_FAMILY_IDS, {})
    @example(_FAMILY_IDS, "ab")
    @example(_FAMILY_IDS, {"a": 1})
    def test_verify_and_lift_exit_by_the_documented_codes(
        self, dominated_family, tmp_path, capsys, members, certificate
    ):
        path = tmp_path / "set.json"  # every example rewrites it
        path.write_text(json.dumps({
            "relation": {"kind": "epsilon", "eps": "1"}, "members": members,
            "certificate": certificate,
        }))
        files = ["-i", str(dominated_family), "--set", str(path)]
        for argv in (["verify", "--relation", "epsilon", "--eps", "1", *files],
                     ["lift", "--eps", "1", *files]):
            code = run(*argv)
            err = capsys.readouterr().err
            assert code in (0, 3, 4), (argv, err)
            if not isinstance(certificate, list):
                assert (code, err) == (3, _NOT_A_LIST), argv


class TestDigitLimit:
    """Numbers past CPython's int/str digit limit keep their exit codes, with a plain message."""

    MESSAGE = (
        f"a number has more than {sys.get_int_max_str_digits()} digits, "
        "the interpreter's int/str conversion limit\n"
    )

    def test_reading_such_a_value_exits_3(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        value = "1/" + "7" * (sys.get_int_max_str_digits() + 700)
        path.write_text(json.dumps({"p": 1, "solutions": [{"id": "a", "f": [value]}]}))
        argv = ["verify", "--relation", "epsilon", "--eps", "1", "-i", str(path)]
        assert run(*argv, "--set", str(path)) == 3
        assert capsys.readouterr().err == "bad input file: solution 'a': " + self.MESSAGE

    def test_generating_such_a_value_exits_2(self, tmp_path, capsys):
        out = tmp_path / "chain.json"
        argv = ["gen", "prop-one-exact", "--delta", "1/3", "--n", "80", "-o", str(out)]
        assert run(*argv) == 2
        assert capsys.readouterr().err == "usage error: " + self.MESSAGE
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("field", ["p", "k", "exact_indices"])
    def test_a_json_integer_past_the_limit_exits_3(self, field, dominated_family, tmp_path, capsys):
        big = "7" * (sys.get_int_max_str_digits() + 1)
        path = tmp_path / f"{field}.json"
        rel = ["--relation", "epsilon", "--eps", "1"]
        if field == "p":
            path.write_text('{"p": %s, "solutions": [{"id": "a", "f": ["1"]}]}' % big)
            argv = ["stats", "--eps", "1", "-i", str(path)]
        else:
            relation = '{"kind": "quasi-k", "eps": "1", "k": %s}' % (big if field == "k" else "1")
            entry = '{"covered": "x1", "by": "x1", "exact_indices": [%s]}' % big
            certificate = entry if field == "exact_indices" else ""
            path.write_text(
                '{"relation": %s, "members": ["x1"], "certificate": [%s]}' % (relation, certificate)
            )
            argv = ["verify", *rel, "-i", str(dominated_family), "--set", str(path)]
        assert run(*argv) == 3
        err = capsys.readouterr().err
        assert err == "bad input file: " + self.MESSAGE
        assert "set_int_max_str_digits" not in err


def run_fresh(*argv, cwd):
    """main(argv) in a new interpreter, killed (failing the test) after 60 s: (code, stderr)."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = "import sys; from mopareto.cli import main; sys.exit(main())"
    done = subprocess.run([sys.executable, "-c", script, *argv], cwd=cwd, capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
    return done.returncode, done.stderr


EPS_HALF = ["--relation", "epsilon", "--eps", "1/2"]


class TestAnyPWithoutSolutions:
    """{"p": 10**20, "solutions": []} is a valid instance file: every command finishes on it
    with its documented exit code, each run in its own process under a timeout."""

    @pytest.fixture()
    def files(self, tmp_path):
        (tmp_path / "i.json").write_text(json.dumps({"p": 10**20, "solutions": []}))
        (tmp_path / "s.json").write_text(json.dumps(
            {"relation": {"kind": "epsilon", "eps": "1/2"}, "members": []}))
        return tmp_path

    @pytest.mark.parametrize("argv", [
        ["stats", "--eps", "1/2"],
        ["verify", *EPS_HALF, "--set", "s.json"],
        ["compute", *EPS_HALF, "--algo", "grid"],
        ["compute", *EPS_HALF, "--algo", "greedy-cover"],
        ["min", *EPS_HALF],
        ["lift", "--eps", "1/2", "--set", "s.json"],
    ], ids=" ".join)
    def test_each_command_exits_0(self, files, argv):
        code, err = run_fresh(*argv, "-i", "i.json", cwd=files)
        assert code == 0, err

    def test_the_gap_sweep_exits_5(self, files):
        code, err = run_fresh("compute", *EPS_HALF, "--algo", "gap", "-i", "i.json", cwd=files)
        assert (code, err) == (5, (
            f"gap-query limit: 2**{10**20} or more budget queries (2 or more levels, p={10**20}) "
            "exceed the gap-query limit 1000000\n"
        ))

    def test_a_count_past_the_digit_limit_exits_5(self, tmp_path):
        # 2**15000 has 4516 digits, more than CPython's default limit of 4300
        (tmp_path / "i.json").write_text(json.dumps({"p": 15000, "solutions": [
            {"id": "a", "f": ["1"] * 15000}, {"id": "b", "f": ["2"] * 15000}]}))
        code, err = run_fresh("compute", *EPS_HALF, "--algo", "gap", "-i", "i.json", cwd=tmp_path)
        assert (code, err) == (5, (
            "gap-query limit: 2**15000 or more budget queries (2 or more levels, p=15000) "
            "exceed the gap-query limit 1000000\n"
        ))


def readme_cli_lines():
    """The `mopareto` command lines of the README's `## CLI` block, in order."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("mopareto ")]


def test_every_readme_cli_line_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = readme_cli_lines()
    assert [line.split()[1] for line in lines].count("lift") == 1
    printed = 0
    for line in lines:
        command, _, comment = line.partition("#")
        assert run(*shlex.split(command)[1:]) == 0, line
        out = capsys.readouterr().out
        expected = re.search(r"prints (\S+)", comment)
        if expected:
            assert out == expected.group(1) + "\n", line
            printed += 1
    assert printed == 1  # min's "prints 2"
