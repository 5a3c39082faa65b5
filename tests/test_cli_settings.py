"""The args → config mapping of `repro fleet`, `plan` and `serve`.

Each command turns its flags into one config and hands it to a runner.
These tests swap the runner for one that records its arguments and
stops, so nothing is simulated: the defaults must build the documented
config, every flag must land on exactly its field, and the flags that
are not one field's value (`--failure-prob`, `--cache-tier` /
`--cache-bytes`, the link bandwidths, plan's sweep axes, serve's model
shape) keep their special mapping.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.fleet
import repro.serving
from repro.config import BackendConfig, FleetConfig, StorageConfig
from repro.experiments import small_config
from repro.serving import ServingConfig
from repro.tools.cli import build_parser
from repro.tools.cli import main as cli_main
from repro.tools.clidoc import all_flags


class _Captured(Exception):
    """Raised by the stand-in runners to stop a command once built."""

    def __init__(self, *args, **kwargs):
        super().__init__()
        self.args_ = args
        self.kwargs = kwargs


def _stop(*args, **kwargs):
    raise _Captured(*args, **kwargs)


@pytest.fixture
def build(monkeypatch):
    """``build(argv)`` → the positional and keyword runner arguments."""
    for module, runner in (
        (repro.fleet, "run_fleet"),
        (repro.fleet, "run_plan"),
        (repro.serving, "run_serving"),
    ):
        monkeypatch.setattr(module, runner, _stop)

    def run(argv: list[str]):
        with pytest.raises(_Captured) as caught:
            cli_main(argv)
        return caught.value.args_, caught.value.kwargs

    return run


def _replace(config, **changes):
    """``config`` with dotted-path fields (``storage.backend.kind``) set."""
    nested: dict[str, dict] = {}
    direct = {}
    for path, value in changes.items():
        head, _, rest = path.partition(".")
        if rest:
            nested.setdefault(head, {})[rest] = value
        else:
            direct[head] = value
    for head, sub in nested.items():
        direct[head] = _replace(getattr(config, head), **sub)
    return dataclasses.replace(config, **direct)


def _covered(cases) -> set[str]:
    return {tok for argv, _ in cases for tok in argv if tok.startswith("--")}


def _ids(cases) -> list[str]:
    return [" ".join(argv) for argv, _ in cases]


def _setting_flags(command: str) -> set[str]:
    return all_flags(build_parser())[command] - {"--out", "--metrics-out"}


# -- fleet --------------------------------------------------------------

FLEET_DEFAULT = FleetConfig(intervals_per_job=6)

FLEET_CASES = [
    (["--jobs", "5"], {"num_jobs": 5}),
    (["--intervals", "3"], {"intervals_per_job": 3}),
    (["--seed", "11"], {"seed": 11}),
    (
        ["--admission", "static", "--max-concurrent-writes", "2"],
        {"admission_mode": "static", "max_concurrent_writes": 2},
    ),
    (["--admission", "dynamic"], {"admission_mode": "dynamic"}),
    (
        ["--admission-backlog-factor", "2.5"],
        {"admission_backlog_factor": 2.5},
    ),
    (["--restore-admission", "dynamic"], {"restore_admission": "dynamic"}),
    (
        ["--restore-backlog-factor", "0.25"],
        {"restore_backlog_factor": 0.25},
    ),
    (
        ["--retention", "storm_aware", "--storm", "rack"],
        {"retention_mode": "storm_aware", "storm_domain": "rack"},
    ),
    (["--storm-chain-limit", "3"], {"storm_chain_limit": 3}),
    (
        [
            "--retention", "storm_aware", "--storm", "power",
            "--adaptive-chain",
        ],
        {
            "retention_mode": "storm_aware",
            "storm_domain": "power",
            "storm_chain_adaptive": True,
        },
    ),
    (["--restore-order", "hot_first"], {"restore_order": "hot_first"}),
    (["--replicate-k", "2"], {"replicate_k": 2}),
    (["--peer-ring-bytes", "4096"], {"peer_ring_bytes": 4096}),
    (["--baseline-flush-intervals", "3"], {"baseline_flush_intervals": 3}),
    (["--quota-bytes", "9999999"], {"per_job_quota_bytes": 9999999}),
    (["--no-failures"], {"inject_failures": False}),
    (["--priority-mix", "0.3"], {"priority_mix": 0.3}),
    (["--storm", "rack"], {"storm_domain": "rack"}),
    (["--rack-size", "2"], {"rack_size": 2}),
    (["--preempt-wait", "0"], {"preempt_wait_s": 0.0}),
    (["--no-preempt"], {"preempt_staged_writes": False}),
    (["--bitrot-prob", "0.1"], {"bitrot_prob": 0.1}),
    (["--bitrot-seed", "5"], {"bitrot_seed": 5}),
    (["--backend", "s3like"], {"storage.backend.kind": "s3like"}),
    (["--part-size", "4096"], {"storage.backend.part_size_bytes": 4096}),
    (["--part-fanout", "2"], {"storage.backend.multipart_fanout": 2}),
    (["--put-latency", "0.5"], {"storage.backend.put_latency_s": 0.5}),
    (["--get-latency", "0.25"], {"storage.backend.get_latency_s": 0.25}),
    (["--range-get", "8192"], {"storage.backend.range_get_bytes": 8192}),
    (
        ["--cache-policy", "write_through"],
        {"storage.backend.cache_policy": "write_through"},
    ),
    # Not one field's value: one probability arms both PUT and GET.
    (
        ["--backend", "s3like", "--failure-prob", "0.08"],
        {
            "storage.backend.kind": "s3like",
            "storage.backend.put_failure_prob": 0.08,
            "storage.backend.get_failure_prob": 0.08,
        },
    ),
    # The near tier exists only with --cache-tier; its size alone is inert.
    (["--cache-bytes", "4096"], {}),
    (["--cache-tier"], {"storage.backend.cache_bytes": 1024 * 1024}),
    (
        ["--cache-tier", "--cache-bytes", "4096"],
        {"storage.backend.cache_bytes": 4096},
    ),
    (["--write-bandwidth", "150000"], {"storage.write_bandwidth": 150000.0}),
    (["--read-bandwidth", "300000"], {"storage.read_bandwidth": 300000.0}),
]


class TestFleet:
    def test_defaults(self, build):
        (config,), _ = build(["fleet"])
        assert config == FLEET_DEFAULT
        assert config.storage == StorageConfig()

    @pytest.mark.parametrize(
        "argv, changes", FLEET_CASES, ids=_ids(FLEET_CASES)
    )
    def test_flag_lands_on_its_field(self, build, argv, changes):
        (config,), _ = build(["fleet", *argv])
        assert config == _replace(FLEET_DEFAULT, **changes)

    def test_every_flag_is_covered(self):
        assert _covered(FLEET_CASES) == _setting_flags("fleet")

    def test_seed_is_the_fleet_seed_not_the_backend_seed(self, build):
        (config,), _ = build(["fleet", "--seed", "11"])
        assert config.seed == 11
        assert config.storage.backend.seed == BackendConfig().seed

    def test_failure_prob_off_s3like_still_reaches_the_config(
        self, build, capsys
    ):
        (config,), _ = build(["fleet", "--failure-prob", "0.08"])
        assert config.storage.backend.put_failure_prob == 0.08
        assert "only injects on --backend s3like" in capsys.readouterr().err


# -- plan ---------------------------------------------------------------

PLAN_SWEEPS = {
    "quotas": [None],
    "keep_lasts": [1, 2, 3],
    "admissions": ["none", "dynamic"],
}

PLAN_CASES = [
    (["--jobs", "5"], {"num_jobs": 5}),
    (["--intervals", "3"], {"intervals_per_job": 3}),
    (["--seed", "11"], {"seed": 11}),
    # The base carries the cap only for the sweep's static points.
    (
        ["--max-concurrent-writes", "2"],
        {"max_concurrent_writes": 2, "admission_mode": "static"},
    ),
    (["--storm", "rack"], {"storm_domain": "rack"}),
    (["--rack-size", "2"], {"rack_size": 2}),
    (["--priority-mix", "0.3"], {"priority_mix": 0.3}),
    (["--no-failures"], {"inject_failures": False}),
]

PLAN_SWEEP_CASES = [
    (["--quotas", "none,262144"], {"quotas": [None, 262144]}),
    (["--keep-last", "1,2"], {"keep_lasts": [1, 2]}),
    (["--admissions", "static"], {"admissions": ["static"]}),
]


class TestPlan:
    def test_defaults(self, build):
        (base,), sweeps = build(["plan"])
        assert base == FleetConfig()
        assert sweeps == PLAN_SWEEPS

    @pytest.mark.parametrize(
        "argv, changes", PLAN_CASES, ids=_ids(PLAN_CASES)
    )
    def test_flag_lands_on_its_field(self, build, argv, changes):
        (base,), sweeps = build(["plan", *argv])
        assert base == _replace(FleetConfig(), **changes)
        assert sweeps == PLAN_SWEEPS

    @pytest.mark.parametrize(
        "argv, changes", PLAN_SWEEP_CASES, ids=_ids(PLAN_SWEEP_CASES)
    )
    def test_sweep_axis(self, build, argv, changes):
        (base,), sweeps = build(["plan", *argv])
        assert base == FleetConfig()
        assert sweeps == {**PLAN_SWEEPS, **changes}

    def test_every_flag_is_covered(self):
        assert _covered(PLAN_CASES + PLAN_SWEEP_CASES) == _setting_flags(
            "plan"
        )


# -- serve --------------------------------------------------------------

SERVING_DEFAULT = ServingConfig(
    num_servers=3, qps=16.0, num_queries=300, hot_rows_per_table=48
)


def _serve_exp(interval_batches=25, tables=2, rows=2048, chunk_rows=256):
    config = small_config(
        policy="consecutive",
        interval_batches=interval_batches,
        num_tables=tables,
        rows_per_table=rows,
        batch_size=64,
    )
    return _replace(config, **{"checkpoint.chunk_rows": chunk_rows})


SERVE_CASES = [
    (["--servers", "2"], {"num_servers": 2}),
    (["--cache-rows", "64"], {"cache_rows": 64}),
    (["--qps", "8"], {"qps": 8.0}),
    (["--queries", "50"], {"num_queries": 50}),
    (["--intervals", "3"], {"train_intervals": 3}),
    (["--pin-rows", "16"], {"hot_rows_per_table": 16}),
    (["--no-warm-pins"], {"warm_pins": False}),
    (["--no-verify"], {"verify": False}),
    (["--seed", "9"], {"seed": 9}),
]

SERVE_MODEL_CASES = [
    (["--interval-batches", "10"], {"interval_batches": 10}),
    (["--tables", "3"], {"tables": 3}),
    (["--rows", "512"], {"rows": 512}),
    (["--chunk-rows", "128"], {"chunk_rows": 128}),
]


class TestServe:
    def test_defaults(self, build):
        (config, serving), _ = build(["serve"])
        assert serving == SERVING_DEFAULT
        assert config == _serve_exp()

    @pytest.mark.parametrize(
        "argv, changes", SERVE_CASES, ids=_ids(SERVE_CASES)
    )
    def test_flag_lands_on_its_field(self, build, argv, changes):
        (config, serving), _ = build(["serve", *argv])
        assert serving == _replace(SERVING_DEFAULT, **changes)
        assert config == _serve_exp()

    @pytest.mark.parametrize(
        "argv, changes", SERVE_MODEL_CASES, ids=_ids(SERVE_MODEL_CASES)
    )
    def test_model_flag(self, build, argv, changes):
        (config, serving), _ = build(["serve", *argv])
        assert serving == SERVING_DEFAULT
        assert config == _serve_exp(**changes)

    def test_every_flag_is_covered(self):
        assert _covered(SERVE_CASES + SERVE_MODEL_CASES) == _setting_flags(
            "serve"
        )
