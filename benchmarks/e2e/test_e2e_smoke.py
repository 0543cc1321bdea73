"""Smoke test of the end-to-end benchmark itself (500 entities, a tenth of
the requests).  Not part of tier-1; run it explicitly::

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

# isort: off  (the sorter takes the local trace.py for the stdlib module of that name)
import compare  # noqa: E402
import run  # noqa: E402
from trace import TARGETS  # noqa: E402

WORKLOADS = [workload["name"] for workload in run.SPEC["workloads"]]
SEED = 3


def _current(target):
    module = importlib.import_module(target.module)
    owner = module if target.owner is None else getattr(module, target.owner)
    return vars(owner)[target.attr]


@pytest.fixture(scope="module")
def smoke():
    """Two traced smoke runs of every workload, plus what they left behind."""
    originals = [_current(target) for target in TARGETS]
    files_before = sorted(path for path in HERE.rglob("*") if "__pycache__" not in path.parts)
    reports = {
        workload: [
            run.measure(workload, SEED, run.SPEC["run_seconds"] / 10, run.SMOKE_ENTITIES, trace=True)
            for _ in range(2)
        ]
        for workload in WORKLOADS
    }
    files_after = sorted(path for path in HERE.rglob("*") if "__pycache__" not in path.parts)
    return reports, originals, files_before, files_after


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_reported_and_finite(smoke, workload):
    for report in smoke[0][workload]:
        assert list(report["end_to_end"]) and set(report["end_to_end"]) == set(run.END_TO_END)
        assert set(report["per_layer"]) == set(run.PER_LAYER)
        values = [*report["end_to_end"].values(), *report["per_layer"].values()]
        assert all(math.isfinite(value) for value in values)
        assert all(value > 0 for value in report["end_to_end"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_nothing_fails_and_the_workload_stresses_what_it_claims(smoke, workload):
    for report in smoke[0][workload]:
        assert report["failures"] == [] and report["failed_share"] == 0
        assert all(report["checks"].values()), report["checks"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_gives_one_digest(smoke, workload):
    first, second = smoke[0][workload]
    assert first["result_digest"] == second["result_digest"]


def test_wrappers_are_restored_and_no_files_are_left(smoke):
    _, originals, files_before, files_after = smoke
    assert all(_current(target) is original for target, original in zip(TARGETS, originals))
    assert files_after == files_before
    assert not run.WORK.exists()


def test_compare_reads_what_run_writes(smoke, tmp_path, capsys):
    paths = []
    for index in range(2):
        paths.append(tmp_path / f"set{index}.json")
        paths[-1].write_text(json.dumps([smoke[0][workload][index] for workload in WORKLOADS]))
    assert compare.main([str(path) for path in paths]) in (0, 1)  # timing verdicts are noise at this size
    printed = capsys.readouterr().out
    assert printed.count("equal per seed; 0 failed requests") == len(WORKLOADS)


@pytest.mark.parametrize("trace, names", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_command_line_prints_the_result_line_last(trace, names):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "search_keywords", "--smoke",
         "--seed", str(SEED), "--trace", str(trace)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: value["unit"] for name, value in result["metrics"].items()} == names
