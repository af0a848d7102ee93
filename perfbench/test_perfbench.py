"""The benchmark's own tests: result shape, exact counts, failure paths.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Most tests drive ``perfbench/run.py`` as a subprocess, the way the
benchmark is run; together they take a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

#: per-layer metrics that are exact counts and must repeat for a seed
EXACT = (
    "filters.candidates",
    "editdist.pairs",
    "editdist.cells",
    "service.hit_rate",
    "service.rechecked_per_add",
    "service.evicted_per_add",
    "sharding.rpcs_per_query",
    "sharding.refine_rpcs_per_query",
    "index.vptree.examined",
    "index.ifi.examined",
)


def run(workload, seed, trace, cwd=ROOT):
    completed = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
        ],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return completed


def result_of(completed):
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_end_to_end_result_has_every_declared_metric():
    result = result_of(run("filter-scan", 5, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {metric["name"]: metric["unit"] for metric in DECLARED["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_exact_counts_repeat_for_a_seed(workload):
    first, second = (result_of(run(workload, 3, 1)) for _ in range(2))
    declared = {metric["name"] for metric in DECLARED["per_layer"]}
    assert set(first["metrics"]) == declared
    assert first["correct"] and second["correct"]
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    if workload == "churn-cached":
        assert first["metrics"]["service.rechecked_per_add"]["value"] > 0
    else:
        assert first["metrics"]["editdist.cells"]["value"] > 0


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    completed = run("filter-scan", 1, 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_rounds_replay_from_one_state_until_the_deadline():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    calls = []

    def execute(record):
        calls.append(record.kind)
        return [(len(calls), 0.0)], None

    records, rounds, failed, wall = workloads.replay_rounds(
        [("read", "l0(l1,l2)"), ("read", "l0(l1)")], execute, seconds=0.5
    )
    # every round ran in a fork: this process saw no call, and each round
    # started from the same (empty) state, so it answered alike
    assert calls == []
    assert rounds >= workloads.MIN_ROUNDS and wall >= 0.5 and failed == 0
    assert [record.answer for record in records] == [([(1, 0.0)],), ([(2, 0.0)],)]


def test_no_process_outlives_stop_all():
    sys.path[:0] = [str(HERE)]
    import fresh

    [child] = fresh.run_fresh([(os.getpid, ())])
    fresh.stop_all()
    # the spawned child and the resource tracker it started are reaped
    assert fresh._children() == []
    assert not Path(f"/proc/{child}").exists()
