"""Committed benchmark records: each ``BENCH_<pr>.json`` at the repository
root is a copy of a ``perfbench/run.py --trace 0`` workload record
(``.perfbench/<workload>-seed<N>/result-trace0.json``)."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_is_a_correct_benchmark_run(path):
    record = json.loads(path.read_text())
    assert record["workload"] in {w["name"] for w in BENCHMARK["workloads"]}
    assert record["trace"] == 0
    # what perfbench/run.py reports as "correct": no pass failed, and every
    # end-to-end metric was measured
    assert record["failed"] == 0 and record["attempted"] > 0
    assert all(not p["failures"] for p in record["passes"])
    assert {m["name"] for m in BENCHMARK["end_to_end"]} <= set(record["metrics"])
