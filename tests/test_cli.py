import json

import pytest

from mopareto.cli import main
from mopareto.model import load_instance, load_set


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def dominated_family(tmp_path):
    path = tmp_path / "p1.json"
    assert run("gen", "prop-dominated", "--eps", "1", "-o", str(path)) == 0
    return path


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
        # values span [1/16, 16], so M=4; at eps=1/2 the sweep has 30 levels
        # and would issue 30**5 = 24 300 000 queries at p=5
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
        assert "24300000" in captured.err and "1000000" in captured.err


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

    def test_env_var_overrides_default_limit(self, dominated_family, monkeypatch):
        monkeypatch.setenv("MOPARETO_EXACT_LIMIT", "3")
        code = run(
            "min", "--relation", "epsilon", "--eps", "1", "-i", str(dominated_family)
        )
        assert code == 5

    def test_flag_beats_env_var(self, dominated_family, monkeypatch, capsys):
        monkeypatch.setenv("MOPARETO_EXACT_LIMIT", "3")
        code = run(
            "min", "--relation", "epsilon", "--eps", "1",
            "-i", str(dominated_family), "--limit", "10",
        )
        assert code == 0
        assert capsys.readouterr().out.strip().isdigit()


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

    def test_lift_rejects_non_covering_input(self, dominated_family, tmp_path):
        raw = tmp_path / "raw.json"
        raw.write_text('{"relation": {"kind": "epsilon", "eps": "1"}, "members": ["x1"]}')
        assert (
            run("lift", "--eps", "1", "-i", str(dominated_family), "--set", str(raw))
            == 4
        )


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


class TestFailureModes:
    def test_missing_instance_file_exits_3(self, tmp_path):
        assert (
            run("min", "--relation", "epsilon", "--eps", "1", "-i", str(tmp_path / "no.json"))
            == 3
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
