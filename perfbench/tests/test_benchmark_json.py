"""BENCHMARK.json names exactly what the runner and the tracer report."""

import json
from pathlib import Path

import run
import tracing
import workloads

SPEC = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())


def test_workloads_match():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_per_layer_metrics_match():
    assert [m["name"] for m in SPEC["per_layer"]] == tracing.metric_names()
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in SPEC["per_layer"])


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    value, pct = run.tail([float(i) for i in range(20)])
    assert value == 9.0 and pct == 50.0
    assert sum(1 for w in range(20) if w > value) == 10
