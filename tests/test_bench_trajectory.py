"""``BENCH_1.json``: the committed performance trajectory stays well formed.

One record per perf PR, appended, never rewritten. The file is data a
reviewer and the next perf PR read; this test is what keeps a record
from naming a workload or metric ``BENCHMARK.json`` does not declare,
dropping a bounded metric, or claiming more wins than pairs run.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRAJECTORY = json.loads((ROOT / "BENCH_1.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
METRICS = END_TO_END | {m["name"] for m in BENCHMARK["per_layer"]}
SHA = re.compile(r"[0-9a-f]{40}")
RECORDS = TRAJECTORY["records"]


def _rows(record):
    for workload, rows in record["workloads"].items():
        for row in rows:
            yield workload, row


def test_file_header():
    assert TRAJECTORY["schema"] == 1
    assert TRAJECTORY["benchmark"] == "BENCHMARK.json"
    assert TRAJECTORY["command"][: len(BENCHMARK["command"])] == (
        BENCHMARK["command"]
    )
    prs = [record["pr"] for record in RECORDS]
    assert prs == sorted(set(prs)) and prs, "one record per PR, in order"
    assert RECORDS[0]["kind"] == "baseline"


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: f"pr{r['pr']}")
class TestRecord:
    def test_identity_and_environment(self, record):
        assert record["kind"] in ("baseline", "perf")
        assert record["title"]
        # A record is written inside the commit it measures, so its own
        # sha may be null there; the parent's never is.
        assert SHA.fullmatch(record["parent_commit"])
        assert record["commit"] is None or SHA.fullmatch(record["commit"])
        env = record["env"]
        for key in ("python", "numpy", "nproc", "cpu", "platform"):
            assert env[key], key
        assert record["seconds"] == BENCHMARK["run_seconds"]
        assert isinstance(record["pairs"], int)
        assert (record["pairs"] == 0) == (record["kind"] == "baseline")

    def test_every_workload_reports_every_bounded_metric(self, record):
        assert set(record["workloads"]) == WORKLOADS
        for workload, rows in record["workloads"].items():
            untraced = {
                row["metric"]
                for row in rows
                if row["pass"] == "untraced" and row["seed"] == record["seed"]
            }
            assert END_TO_END <= untraced, workload

    def test_rows_name_declared_metrics_and_hold_sane_numbers(self, record):
        for workload, row in _rows(record):
            where = f"{workload} {row['metric']}"
            assert row["metric"] in METRICS, where
            assert row["pass"] in ("untraced", "traced"), where
            if row["metric"] in END_TO_END:
                assert row["pass"] == "untraced", where
            assert isinstance(row["seed"], int), where
            assert 0 <= row["pairs"], where
            sides = [row["change"]]
            if record["kind"] == "baseline":
                assert row["parent"] is None, where
                assert "change_better_in" not in row, where
            else:
                sides.append(row["parent"])
                assert 0 <= row["change_better_in"] <= row["pairs"], where
            for side in sides:
                assert isinstance(side["median"], (int, float)), where
                quartiles = (side["q1"], side["q3"])
                if quartiles != (None, None):
                    assert side["q1"] <= side["median"] <= side["q3"], where

    def test_a_perf_record_says_what_it_claimed(self, record):
        claimed = [
            (workload, row)
            for workload, row in _rows(record)
            if row.get("claimed")
        ]
        if record["kind"] == "baseline":
            assert not claimed
            return
        assert any(row["metric"] in END_TO_END for _, row in claimed)
        for workload, row in claimed:
            # The rule a claim is accepted by: >= 9/10 of the pairs, on
            # at least ten of them.
            assert row["pairs"] >= 10, (workload, row["metric"])
            assert row["change_better_in"] * 10 >= row["pairs"] * 9
