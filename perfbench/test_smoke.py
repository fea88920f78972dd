"""Smoke test of the benchmark itself, at the fast TOY80 preset.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs briefly, untraced and traced; each metric named in
``BENCHMARK.json`` must be printed by name with its unit, in the report
and in the final JSON line. A run whose expected digests are sabotaged
must fail its correctness gate and exit non-zero.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def bench(workload: str, *extra: str, trace: int = 0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "2", "--trace", str(trace),
         "--preset", "TOY80", *extra],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )


def check_metrics(result, expected) -> None:
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    assert final["correct"] is True
    assert final["attempted"] >= 1 and final["failed"] == 0
    assert set(final["metrics"]) == {entry["name"] for entry in expected}
    for entry in expected:
        printed = final["metrics"][entry["name"]]
        assert printed["unit"] == entry["unit"], entry["name"]
        assert isinstance(printed["value"], (int, float))
        assert any(line.strip().startswith(f"{entry['name']} = ")
                   and line.rstrip().endswith(f" {entry['unit']}")
                   for line in lines), entry["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed_with_units(workload):
    check_metrics(bench(workload), SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    result = bench(workload, trace=1)
    check_metrics(result, SPEC["per_layer"])
    assert "attribution " in result.stdout
    assert "spans written to" in result.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_wrong_expected_digest_fails_the_run(workload):
    result = bench(workload, "--sabotage")
    assert result.returncode == 1, result.stdout + result.stderr
    assert "CORRECTNESS GATE FAILED" in result.stdout
    assert json.loads(result.stdout.strip().splitlines()[-1])[
        "correct"] is False


def test_without_the_sources_it_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (REPO / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes(
        (REPO / "BENCHMARK.json").read_bytes())
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert '"metrics"' not in result.stdout
