"""Each workload, shrunk, emits every metric BENCHMARK.json names with no
failed operation; without the program the benchmark refuses to run; the
answer oracle forgives tie order and nothing else; reference answers
computed in a child process come back intact."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench.workloads import in_child, same_answer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def _run(cwd, workload, trace, scale="0.15"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace),
         "--scale", scale],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [entry["name"] for entry in SPEC["workloads"]])
def test_tiny_workload_emits_every_metric_without_errors(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} \
        == {entry["name"]: entry["unit"] for entry in listed}
    if not trace:
        assert "error_ratio                        0 ratio" in done.stdout
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "etl_refresh", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_ordered_answers_may_permute_ties_but_not_rows():
    want = [("a", 0.5), ("b", 0.5), ("c", 0.4), ("d", 0.3), ("e", 0.3)]
    assert same_answer([want[1], want[0]] + want[2:], want, key=1)
    # the LIMIT cut the last tie: any row with that key will do
    assert same_answer(want[:4] + [("f", 0.3)], want, key=1)
    assert not same_answer([("z", 0.5)] + want[1:], want, key=1)
    assert not same_answer(list(reversed(want)), want, key=1)
    assert same_answer([(1, 0.1 + 0.2)], [(1, 0.3)], key=None)


def test_in_child_returns_the_childs_result_and_reports_its_failure():
    assert in_child(lambda: {"rows": [(1, None, "ACGT")]}) \
        == {"rows": [(1, None, "ACGT")]}
    with pytest.raises(RuntimeError):
        in_child(lambda: 1 / 0)
