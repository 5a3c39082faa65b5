"""Tier-1 smoke test of the repo benchmark (``--quick`` shapes).

Checks the *plumbing*, not the numbers: every workload and metric that
``BENCHMARK.json`` declares is emitted and vice versa, names and units
are well-formed, the driver's one-line contract holds for both passes,
and ``compare.py`` accepts a result against itself. Everything the run
writes goes to ``tmp_path``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick_result(tmp_path_factory) -> tuple[dict, Path]:
    tmp = tmp_path_factory.mktemp("perf")
    out = tmp / "result.json"
    done = _run(
        [
            str(HERE / "run.py"),
            "--quick",
            "--trace",
            "--seed",
            "3",
            "--out",
            str(out),
            "--out-dir",
            str(tmp / "out"),
        ],
        tmp,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text()), tmp


def test_benchmark_json_is_well_formed(declared):
    assert set(declared) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert declared["paths"] == ["benchmarks/perf"]
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = []
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in declared["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.fullmatch(name), name
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_every_declared_name_is_emitted_and_vice_versa(
    declared, quick_result
):
    result, _ = quick_result
    assert list(result["workloads"]) == [
        w["name"] for w in declared["workloads"]
    ]
    bounded = {m["name"]: m for m in declared["end_to_end"]}
    layered = {m["name"]: m for m in declared["per_layer"]}
    for name, passes in result["workloads"].items():
        untraced = passes["end_to_end"]["metrics"]
        traced = passes["traced"]["metrics"]
        # The untraced pass also carries the report-level details; the
        # bounded names must be exactly the declared end-to-end ones.
        assert set(untraced) - set(layered) == set(bounded), name
        assert set(traced) == set(layered), name
        for emitted, spec in ((untraced, bounded), (traced, layered)):
            for metric, declared_as in spec.items():
                assert emitted[metric]["unit"] == declared_as["unit"], metric
                assert emitted[metric]["better"] == declared_as["better"]
        for metric in bounded:
            assert untraced[metric]["value"] > 0, (name, metric)
        assert passes["end_to_end"]["failed"] == 0, passes["end_to_end"]
        assert passes["traced"]["failed"] == 0, passes["traced"]
        assert (
            passes["end_to_end"]["sim_digest"]
            == passes["traced"]["sim_digest"]
        ), f"tracing perturbed the simulation of {name}"


def test_result_carries_environment_stamp(quick_result):
    env = quick_result[0]["env"]
    stamp = ("python", "numpy", "nproc", "cpu", "commit", "seed", "repeats")
    for key in stamp:
        assert key in env, key
    assert env["seed"] == 3


def test_trace_artifacts_land_in_out_dir(declared, quick_result):
    _, tmp = quick_result
    for workload in declared["workloads"]:
        trace = tmp / "out" / f"{workload['name']}.trace.json"
        events = json.loads(trace.read_text())
        assert events and {"name", "ph", "ts", "dur", "args"} <= set(events[0])
        assert (tmp / "out" / f"{workload['name']}.layers.txt").exists()


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_contract_line(declared, tmp_path, trace):
    done = _run(
        [
            str(HERE / "run.py"),
            "--workload",
            "single_write_restore",
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            str(trace),
            "--quick",
            "--out-dir",
            str(tmp_path),
        ],
        tmp_path,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    expected = declared["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        emitted = line["metrics"][metric["name"]]
        assert set(emitted) == {"value", "unit"}
        assert emitted["unit"] == metric["unit"]


def test_compare_accepts_a_result_against_itself(quick_result):
    _, tmp = quick_result
    result = str(tmp / "result.json")
    done = _run([str(HERE / "compare.py"), result, result], tmp)
    assert done.returncode == 0, done.stdout + done.stderr
    assert " worse" not in done.stdout.replace("0 worse", "")
    assert "unresolved" not in done.stdout


def test_compare_refuses_different_seeds(quick_result):
    result, tmp = quick_result
    other = json.loads(json.dumps(result))
    other["env"]["seed"] = 4
    (tmp / "other.json").write_text(json.dumps(other))
    done = _run(
        [
            str(HERE / "compare.py"),
            str(tmp / "result.json"),
            str(tmp / "other.json"),
        ],
        tmp,
    )
    assert done.returncode == 2
    assert "refusing to compare" in done.stdout
