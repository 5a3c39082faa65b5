"""Prometheus parity: every exported series, pinned to a recording.

``golden_metrics.json`` holds the parsed ``--metrics-out`` textfiles of
four seeded reports — one fleet run (cache tier, peer replication,
bit rot and a power storm on, so no series is trivially 0), one 2-point
``run_plan`` grid, one ``run_serving`` and one corrupt-object
``scan_job`` — as commit ``ba8ffb1`` rendered them from its
hand-written ``Metric(...)`` lists. The series now derive from the
report dataclasses' own field declarations; this test is what says the
derivation exports the same names, HELP, TYPE, labels and values.

Regenerate — only for a deliberate change to an exported series —
with::

    PYTHONPATH=src python tests/test_metrics_parity.py
"""

from __future__ import annotations

import dataclasses
import functools
import json
import re
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.config import (
    BackendConfig,
    FailureConfig,
    FleetConfig,
    StorageConfig,
)
from repro.core.integrity import scan_job
from repro.core.restore import CheckpointRestorer
from repro.experiments import build_experiment, small_config
from repro.fleet import run_fleet, run_plan
from repro.reporting import (
    additive,
    additive_fields,
    derived_series,
    series,
    totals,
)
from repro.serving import ServingConfig, run_serving
from repro.storage.backends import corrupt_stored_object
from repro.tools.metrics import (
    fleet_metrics,
    plan_metrics,
    render_textfile,
    report_metrics,
    scan_metrics,
    serving_metrics,
)

GOLDEN = Path(__file__).with_name("golden_metrics.json")

FLEET_CONFIG = FleetConfig(
    num_jobs=6,
    intervals_per_job=4,
    seed=47,
    priority_mix=0.5,
    storm_domain="power",
    rack_size=2,
    replicate_k=1,
    peer_ring_bytes=16 * 1024,
    bitrot_prob=0.1,
    failures=FailureConfig(
        mean_time_to_failure_s=40.0, min_failure_s=2.0
    ),
    storage=StorageConfig(backend=BackendConfig(cache_bytes=64 * 1024)),
)

PLAN_BASE = FleetConfig(
    num_jobs=4, intervals_per_job=3, seed=47, storm_domain="rack"
)


@functools.cache
def fleet_report():
    return run_fleet(FLEET_CONFIG)[1]


def plan_curve():
    return run_plan(
        PLAN_BASE, quotas=(None, 256 * 1024), admissions=("dynamic",)
    )


def serving_report():
    config = small_config(
        policy="consecutive",
        interval_batches=25,
        num_tables=2,
        rows_per_table=2048,
        batch_size=64,
    )
    config = dataclasses.replace(
        config,
        checkpoint=dataclasses.replace(config.checkpoint, chunk_rows=256),
    )
    serving = ServingConfig(
        num_servers=2,
        cache_rows=64,
        qps=16.0,
        num_queries=200,
        train_intervals=5,
        hot_rows_per_table=48,
    )
    return run_serving(config, serving)


def scan_report():
    exp = build_experiment(
        small_config(
            num_tables=3,
            rows_per_table=512,
            embedding_dim=8,
            batch_size=32,
            interval_batches=5,
            num_nodes=1,
            devices_per_node=2,
        )
    )
    exp.controller.run_intervals(3)
    newest = max(m.valid_at_s for m in exp.controller.manifests.values())
    exp.clock.advance_to(newest + 1.0, "settle")
    restorer = CheckpointRestorer(exp.store, exp.clock)
    manifest = restorer.plan_resume("job0")[0]
    corrupt_stored_object(
        exp.store.backend, manifest.shards[0].chunks[0].key
    )
    return scan_job(exp.store, "job0")


#: kind -> (seeded report, its series builder).
CASES = {
    "fleet": (fleet_report, fleet_metrics),
    "plan": (plan_curve, plan_metrics),
    "serving": (serving_report, serving_metrics),
    "scan": (scan_report, scan_metrics),
}

_SAMPLE = re.compile(r"(\w+)(?:\{(.*)\})? (\S+)")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def parse_textfile(text: str) -> dict:
    """``{name: [help, type, [[labels, value], ...]]}`` of a textfile."""
    series: dict[str, list] = {}
    for line in text.splitlines():
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP "):].partition(" ")
            series.setdefault(name, ["", "", []])[0] = help_text
        elif line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            series.setdefault(name, ["", "", []])[1] = kind
        else:
            name, labels, value = _SAMPLE.fullmatch(line).groups()
            series[name][2].append(
                [sorted(_LABEL.findall(labels or "")), float(value)]
            )
    return series


def exported(kind: str) -> dict:
    make_report, build = CASES[kind]
    return json.loads(
        json.dumps(parse_textfile(render_textfile(build(make_report()))))
    )


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("kind", CASES)
def test_exported_series_match_recording(kind, golden):
    assert exported(kind) == golden[kind]


def test_recording_exercises_what_it_pins(golden):
    """The sample counts are the ones ``--metrics-out`` has always
    written, and no fleet or serving series is pinned at a trivial 0
    (the two must-be-zero serving counters aside)."""
    counts = {
        kind: sum(len(samples) for _, _, samples in golden[kind].values())
        for kind in CASES
    }
    assert counts == {
        "fleet": 23,
        "plan": 2 + 6 * 2,
        "serving": 17,
        "scan": 9,
    }
    zero = {
        name
        for kind in ("fleet", "serving")
        for name, (_, _, samples) in golden[kind].items()
        if all(value == 0 for _, value in samples)
    }
    assert zero == {
        "repro_serving_torn_lookups",
        "repro_serving_version_fallbacks",
    }
    scan = golden["scan"]
    assert scan["repro_scan_corrupt_objects"][2] == [
        [[["job", "job0"]], 1.0]
    ]


def test_fleet_metrics_series():
    """Each series reads the field it is declared on: distinct values
    on a real report come out under the right public names."""
    report = dataclasses.replace(
        fleet_report(),
        failures=2,
        restores=3,
        torn_writes=1,
        bitrot_injected=5,
        restore_fallbacks=6,
        scratch_restarts=7,
        total_get_bytes=4096,
        cache_capacity_bytes=65536,
        cache_hits=8,
        cache_dirty_backlog=9,
        replicate_k=10,
        repl_peer_restores=11,
        repl_ring_evictions=12,
    )
    text = render_textfile(fleet_metrics(report))
    assert f"repro_fleet_jobs {FLEET_CONFIG.num_jobs}\n" in text
    assert "repro_fleet_failures 2\n" in text
    assert "repro_fleet_restores 3\n" in text
    assert "repro_fleet_torn_writes 1\n" in text
    assert "repro_fleet_bitrot_injected_writes 5\n" in text
    assert "repro_fleet_restore_fallbacks 6\n" in text
    assert "repro_fleet_scratch_restarts 7\n" in text
    assert "repro_fleet_verified_read_bytes 4096\n" in text
    assert "repro_fleet_cache_capacity_bytes 65536\n" in text
    assert "repro_fleet_cache_hits 8\n" in text
    assert "repro_fleet_cache_dirty_backlog 9\n" in text
    assert "repro_fleet_repl_k 10\n" in text
    assert "repro_fleet_repl_peer_restores 11\n" in text
    assert "repro_fleet_repl_ring_evictions 12\n" in text


@dataclass(frozen=True)
class _ToyRow:
    label: str
    hits: int = additive()
    misses: int = additive(default=0)
    weight: float = 1.0


@dataclass(frozen=True)
class _ToyReport:
    rows: tuple[_ToyRow, ...] = series("Rows in the report.")
    hits: int = series("Hits, all rows.", name="hits_total", type="counter")
    internal: int = 7
    latency_s: float = series("Latency.", default=0.25)

    @derived_series("Twice the hits.")
    def double_hits(self) -> int:
        return 2 * self.hits


def test_declared_field_is_exported_undeclared_is_not():
    rows = (_ToyRow("a", hits=2, misses=1), _ToyRow("b", hits=3))
    names = additive_fields(_ToyRow)
    assert names == ("hits", "misses")
    assert totals(rows, names) == {"hits": 5, "misses": 1}
    report = _ToyReport(rows=rows, hits=totals(rows, names)["hits"])
    assert report.double_hits == 10
    text = render_textfile(
        report_metrics(report, "toy", labels=(("job", "j0"),))
    )
    assert text == (
        "# HELP repro_toy_rows Rows in the report.\n"
        "# TYPE repro_toy_rows gauge\n"
        'repro_toy_rows{job="j0"} 2\n'
        "# HELP repro_toy_hits_total Hits, all rows.\n"
        "# TYPE repro_toy_hits_total counter\n"
        'repro_toy_hits_total{job="j0"} 5\n'
        "# HELP repro_toy_latency_s Latency.\n"
        "# TYPE repro_toy_latency_s gauge\n"
        'repro_toy_latency_s{job="j0"} 0.25\n'
        "# HELP repro_toy_double_hits Twice the hits.\n"
        "# TYPE repro_toy_double_hits gauge\n"
        'repro_toy_double_hits{job="j0"} 10\n'
    )
    assert "internal" not in text


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({kind: exported(kind) for kind in CASES}, indent=1)
        + "\n"
    )
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")
