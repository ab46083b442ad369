"""Smoke test of the benchmark runner at the smallest sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs with its smallest cycle and a small target, untraced and
traced, and must produce every metric BENCHMARK.json names, with every
output checked and no failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    record = run.run_workload(workload, seed=3, seconds=0.3, trace=False, small=True)
    assert record["correct"] and record["failed"] == 0, record["failures"]
    line = run.result_line(record)
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_accounts_for_request_time(workload):
    first = run.run_workload(workload, seed=3, seconds=0.3, trace=True, small=True)
    again = run.run_workload(workload, seed=3, seconds=0.3, trace=True, small=True)
    for record in (first, again):
        assert record["correct"] and record["failed"] == 0, record["failures"]
    metrics = run.result_line(first)["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    layer_time = sum(m["value"] for name, m in metrics.items() if name.endswith("_s"))
    assert layer_time == pytest.approx(first["extra"]["traced_s"], rel=1e-9)
    counts = {k: v for k, v in again["metrics"].items() if not k.endswith(("_s", "_ratio"))}
    assert counts == {k: v for k, v in first["metrics"].items() if k in counts}
