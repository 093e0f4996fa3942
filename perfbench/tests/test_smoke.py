"""Smoke test of the benchmark on seconds-sized designs and loads.

Checks that every named metric is emitted with the unit and direction
``BENCHMARK.json`` declares, and that a workload's inputs are a function
of its seed: the same seed yields identical inputs, another seed
different ones.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

_RUNS = {}


def _run(tmp_path_factory, workload: str, seed: int, trace: int) -> dict:
    key = (workload, seed, trace)
    if key not in _RUNS:
        out_file = tmp_path_factory.mktemp("runs") / "runs.jsonl"
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
             "--size", "smoke", "--out", str(out_file)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr[-4000:]
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads(out_file.read_text().splitlines()[-1])
        assert record["result"] == last
        _RUNS[key] = record
    return _RUNS[key]


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == [tuple(row) for row in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(row) for row in PER_LAYER]
    assert all(m["better"] in ("lower", "higher") for m in spec["end_to_end"] + spec["per_layer"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(tmp_path_factory, workload, trace):
    result = _run(tmp_path_factory, workload, 3, trace)["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    table = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {row[0]: row[1] for row in table}
    for m in result["metrics"].values():
        assert isinstance(m["value"], float) and math.isfinite(m["value"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_follow_the_seed(tmp_path_factory, workload):
    a = _run(tmp_path_factory, workload, 3, 0)["provenance"]["inputs_digest"]
    again = _run(tmp_path_factory, workload, 3, 1)["provenance"]["inputs_digest"]
    other = _run(tmp_path_factory, workload, 4, 0)["provenance"]["inputs_digest"]
    assert a == again
    assert a != other
