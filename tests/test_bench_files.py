"""Committed benchmark records (`BENCH_<label>.json` at the repository root).

Each file must parse as JSON and may name only the workloads and metrics that
`BENCHMARK.json` declares, with the units declared there: a record of a
metric or workload the benchmark does not have cannot be reproduced.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def declared():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    return workloads, units


def named(node, workloads, metrics):
    """Collect every workload and metric a record names, wherever it sits.

    A "workload" or "metric" key names one; a "metrics" object (a perfbench
    result line) names one per key, mapped to {"value", "unit"}.
    """
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "workload":
                workloads.append(value)
            elif key == "metric":
                metrics.append((value, None))
            elif key == "metrics" and isinstance(value, dict):
                metrics.extend((name, entry.get("unit")) for name, entry in value.items())
                continue
            named(value, workloads, metrics)
    elif isinstance(node, list):
        for item in node:
            named(item, workloads, metrics)


def test_at_least_one_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_names_only_declared_workloads_and_metrics(path):
    record = json.loads(path.read_text())
    workloads, metrics = [], []
    named(record, workloads, metrics)
    assert workloads and metrics, "a BENCH file records at least one workload and metric"
    known_workloads, units = declared()
    assert set(workloads) <= known_workloads, set(workloads) - known_workloads
    for name, unit in metrics:
        assert name in units, name
        assert unit in (None, units[name]), (name, unit)



def digest_workloads(name, seed):
    """The workloads named, in order, by a digest file's `outputs` lines at this seed."""
    lines = (ROOT / ".github" / name).read_text().splitlines()
    pattern = re.compile(rf"outputs (\S+) seed {seed} sha256 [0-9a-f]{{64}}")
    return [m and m[1] for m in map(pattern.fullmatch, lines)]


def workload_names():
    return [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_digest_file_has_one_seed_1_line_per_workload():
    """CI diffs perfbench's `outputs` lines, in BENCHMARK.json order, against this file."""
    assert digest_workloads("bench-digests.txt", 1) == workload_names()


def test_held_out_digest_file_has_one_line_per_workload():
    """CI diffs the held-out seed's `outputs` lines against bench-digests-<seed>.txt too."""
    seed = json.loads((ROOT / "perfbench" / "interaction_map.json").read_text())["held_out_seed"]
    assert digest_workloads(f"bench-digests-{seed}.txt", seed) == workload_names()
