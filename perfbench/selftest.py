"""Self-check of the benchmark harness on tiny inputs.

Run from the repository root with ``python3 -m pytest perfbench/selftest.py``.
The file name keeps it out of the repository's own test collection: every
case here starts the program in subprocesses and takes a few seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def invoke(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=str(cwd), capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    done = invoke(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    line = json.loads(lines[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in line["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in line["metrics"].values())
    report = "\n".join(lines[:-1])
    for name in {**run.END_TO_END, **run.REPORTED_ONLY}:
        assert f"  {name} " in report
    assert "environment {" in report


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _annotator(**overrides):
    fields = dict(tenant="tenant-0", errors=[], order_ok=True, committed=5,
                  server_committed=5, recalls=[0.1, 0.2, 0.2, 0.5, 0.9],
                  checkpoints=[])
    fields.update(overrides)
    return SimpleNamespace(**fields)


def _gateway_session(**overrides):
    return {"annotators": [_annotator(**overrides)], "checkpoints_readable": 0,
            "exit_code": 0}


def test_gateway_checks_accept_a_clean_session():
    workload = dict(run.WORKLOADS["gateway-pool"], **run.TINY)
    assert run.gateway_checks(workload, [_gateway_session()]) == []


@pytest.mark.parametrize("tamper", [
    {"server_committed": 4},
    {"committed": 4, "server_committed": 4},
    {"order_ok": False},
    {"recalls": [0.5, 0.4, 0.6, 0.7, 0.8]},
    {"errors": ["HTTP 429"]},
])
def test_gateway_checks_reject_a_tampered_session(tamper):
    workload = dict(run.WORKLOADS["gateway-pool"], **run.TINY)
    assert run.gateway_checks(workload, [_gateway_session(**tamper)])


def _library_session(**overrides):
    fields = dict(seed=7, failed=0, no_repeat=True, recall_monotone=True,
                  questions=5, digest="a" * 64)
    fields.update(overrides)
    return fields


@pytest.mark.parametrize("tamper", [
    {"failed": 1}, {"no_repeat": False}, {"recall_monotone": False},
    {"questions": 4},
])
def test_library_checks_reject_a_tampered_session(tamper, monkeypatch):
    monkeypatch.setattr(run.common, "check_recorded_digest", lambda k, d: True)
    workload = dict(run.WORKLOADS["tweets-accept-heavy"], **run.TINY)
    clean = run.library_checks("w", workload, 7, [_library_session()], None, "s")
    assert clean == []
    assert run.library_checks("w", workload, 7, [_library_session(**tamper)],
                              None, "s")


def test_library_checks_reject_a_changed_history(monkeypatch, tmp_path):
    monkeypatch.setattr(run.common, "WORK", tmp_path)
    workload = dict(run.WORKLOADS["tweets-accept-heavy"], **run.TINY)
    first = [_library_session(digest="a" * 64)]
    assert run.library_checks("w", workload, 7, first, None, "s") == []
    assert run.library_checks("w", workload, 7, first, None, "s") == []
    changed = [_library_session(digest="b" * 64)]
    assert run.library_checks("w", workload, 7, changed, None, "s")
    traced = _library_session(digest="c" * 64)
    assert run.library_checks("w", workload, 7, first, traced, "s")


def test_tail_percentile_keeps_ten_samples_beyond():
    from common import tail_percentile

    assert tail_percentile(40) == 75.0
    assert tail_percentile(300) == 95.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(5) == 50.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = invoke("gateway-pool", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
    assert not os.path.exists(tmp_path / ".perfbench_work")
