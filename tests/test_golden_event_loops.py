"""Golden event logs of the two event loops.

``golden_event_loops.json`` holds what the fleet scheduler and the
serving co-simulation produced at commit ``b0894df`` — the commit
before the lockstep scan, the heap tail, the storm drain and the serving
loop started sharing one "who gets the link next" function, and before
independent crashes and storms shared one recovery drain. Heap ≡
lockstep cannot see drift in code both sides call, so every case here is
pinned to recorded values instead of to its sibling. The lockstep column
is the scan kept in ``tests/reference_lockstep.py`` since PR 20 took the
``dispatch=`` option out of ``src/``.

Regenerate — only for a deliberate simulated-time change — with::

    PYTHONPATH=src python tests/test_golden_event_loops.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.config import (
    BackendConfig,
    FailureConfig,
    FleetConfig,
    StorageConfig,
)
from repro.experiments import small_config
from repro.fleet import run_fleet
from repro.serving import ServingConfig, ServingFleet

from reference_lockstep import run_fleet_lockstep

GOLDEN = Path(__file__).with_name("golden_event_loops.json")

KiB = 1 << 10


def _s3like(**backend) -> StorageConfig:
    return StorageConfig(backend=BackendConfig(kind="s3like", **backend))


def _failures(mttf_s: float) -> FailureConfig:
    """Independent failures frequent enough to fire in a short run."""
    return FailureConfig(mean_time_to_failure_s=mttf_s, min_failure_s=2.0)


FLEET_CASES = {
    "priority-rack-storm-s3like-parts": FleetConfig(
        num_jobs=6,
        intervals_per_job=3,
        seed=47,
        priority_mix=0.25,
        storm_domain="rack",
        rack_size=2,
        storage=_s3like(
            part_size_bytes=16 * KiB,
            multipart_fanout=2,
            range_get_bytes=16 * KiB,
        ),
    ),
    "power-storm-paced-hot-first": FleetConfig(
        num_jobs=6,
        intervals_per_job=3,
        seed=23,
        priority_mix=0.5,
        storm_domain="power",
        restore_admission="dynamic",
        restore_backlog_factor=0.25,
        restore_order="hot_first",
    ),
    "replicate-k2-rack-storm": FleetConfig(
        num_jobs=6,
        intervals_per_job=4,
        seed=47,
        priority_mix=0.5,
        storm_domain="rack",
        rack_size=2,
        replicate_k=2,
        failures=_failures(40.0),
    ),
    "bitrot-rack-storm": FleetConfig(
        num_jobs=6,
        intervals_per_job=4,
        seed=42,
        priority_mix=0.25,
        storm_domain="rack",
        bitrot_prob=0.1,
    ),
    # Single-victim crashes, no storm: a scratch restart, a store
    # restore over a torn write and one through a corrupt candidate ...
    "independent-failures-fallback": FleetConfig(
        num_jobs=6,
        intervals_per_job=4,
        seed=23,
        priority_mix=0.25,
        bitrot_prob=0.1,
        failures=_failures(20.0),
    ),
    # ... and every resume-plan candidate corrupt -> scratch restart.
    "independent-failures-all-corrupt": FleetConfig(
        num_jobs=6,
        intervals_per_job=4,
        seed=42,
        priority_mix=0.25,
        bitrot_prob=0.3,
        failures=_failures(20.0),
    ),
}

STORM_CASES = [
    name for name, config in FLEET_CASES.items() if config.storm_domain
]

DISPATCHES = {"heap": run_fleet, "lockstep": run_fleet_lockstep}


def _serving_experiment(storage: StorageConfig | None = None):
    config = small_config(
        policy="consecutive",
        interval_batches=25,
        num_tables=2,
        rows_per_table=2048,
        batch_size=64,
    )
    return dataclasses.replace(
        config,
        checkpoint=dataclasses.replace(config.checkpoint, chunk_rows=256),
        storage=storage if storage is not None else config.storage,
    )


def _serving(**overrides) -> ServingConfig:
    shape = dict(
        num_servers=2,
        cache_rows=64,
        qps=16.0,
        num_queries=200,
        train_intervals=5,
        hot_rows_per_table=48,
    )
    shape.update(overrides)
    return ServingConfig(**shape)


SERVING_CASES = {
    "memory-default": (_serving_experiment(), _serving()),
    "s3like-ranged": (
        _serving_experiment(
            _s3like(part_size_bytes=16 * KiB, range_get_bytes=4 * KiB)
        ),
        _serving(),
    ),
    "cache-rows-16": (_serving_experiment(), _serving(cache_rows=16)),
    # Twelve slots: dispatch ties go by slot index, and "serve10" sorts
    # before "serve2" as a string.
    "servers-12-qps-64": (
        _serving_experiment(),
        _serving(num_servers=12, qps=64.0),
    ),
    "one-server-no-warm-pins": (
        _serving_experiment(),
        _serving(num_servers=1, warm_pins=False),
    ),
    "s3like-ranged-servers-4-qps-400": (
        _serving_experiment(
            _s3like(part_size_bytes=16 * KiB, range_get_bytes=4 * KiB)
        ),
        _serving(num_servers=4, qps=400.0),
    ),
    "no-queries-unverified": (
        _serving_experiment(),
        _serving(num_queries=0, verify=False),
    ),
}


def _plain(value):
    """The value as JSON would give it back (tuples become lists)."""
    return json.loads(json.dumps(value))


def fleet_case(config: FleetConfig, dispatch: str) -> dict:
    scheduler, report = DISPATCHES[dispatch](config)
    fields = {
        f.name: getattr(report, f.name)
        for f in dataclasses.fields(report)
        if f.compare  # the pool_* fields are measured wall seconds
    }
    return _plain(
        {
            "events": [
                [e.kind, e.job_id, e.time_s, sorted(e.payload.items())]
                for e in scheduler.events
            ],
            "report": {
                **fields,
                "jobs": [dataclasses.asdict(job) for job in report.jobs],
            },
        }
    )


def serving_case(exp_config, serving: ServingConfig) -> dict:
    fleet = ServingFleet(exp_config, serving)
    report = fleet.run()
    return _plain(
        {
            "report": dataclasses.asdict(report),
            "lookups": [
                [r.request_id, r.server_id, r.version_index, r.completed_s]
                for r in fleet.results
            ],
        }
    )


def record() -> dict:
    fleet = {}
    for name, config in FLEET_CASES.items():
        fleet[name] = fleet_case(config, "heap")
        # One recording serves both engines: they agreed when recorded.
        assert all(fleet_case(config, d) == fleet[name] for d in DISPATCHES)
    return {
        "fleet": fleet,
        "serving": {
            name: serving_case(*case)
            for name, case in SERVING_CASES.items()
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("dispatch", DISPATCHES)
@pytest.mark.parametrize("name", FLEET_CASES)
def test_fleet_event_log_and_report_match_recording(
    name, dispatch, golden
):
    got = fleet_case(FLEET_CASES[name], dispatch)
    want = golden["fleet"][name]
    assert got["events"] == want["events"]
    assert got["report"] == want["report"]


@pytest.mark.parametrize("name", SERVING_CASES)
def test_serving_report_and_lookups_match_recording(name, golden):
    assert serving_case(*SERVING_CASES[name]) == golden["serving"][name]


def test_recording_exercises_what_it_pins(golden):
    """Guard the matrix against silent no-ops."""
    reports = {
        name: case["report"] for name, case in golden["fleet"].items()
    }
    assert all(reports[name]["storm"] is not None for name in STORM_CASES)

    def total(case: str, counter: str) -> int:
        return sum(job[counter] for job in reports[case]["jobs"])

    parts = reports["priority-rack-storm-s3like-parts"]
    assert parts["part_interleave_splits"] > 0
    assert total("priority-rack-storm-s3like-parts", "preempted_writes") > 0
    assert total("power-storm-paced-hot-first", "restore_deferred") > 0
    assert total("replicate-k2-rack-storm", "peer_restores") > 0
    assert reports["bitrot-rack-storm"]["restore_fallbacks"] > 0
    # Independent crashes: the single-victim use of the same drain.
    assert total("replicate-k2-rack-storm", "failures") > 0
    fallback = reports["independent-failures-fallback"]
    assert fallback["failures"] >= 3 and fallback["restore_fallbacks"] > 0
    assert 0 < total("independent-failures-fallback", "scratch_restarts") < 3
    crashes = [
        dict(payload)
        for kind, _, _, payload in golden["fleet"][
            "independent-failures-all-corrupt"
        ]["events"]
        if kind == "crash"
    ]
    assert any(
        crash["valid_before"] and crash["restored_from"] is None
        for crash in crashes
    )
    for case in golden["serving"].values():
        assert case["report"]["version_flips"] >= 3
        assert case["report"]["torn_lookups"] == 0


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), separators=(",", ":")) + "\n")
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")
