"""Capacity-planner edge cases: degenerate grids and storm-off runs.

:func:`repro.fleet.planner.run_plan` re-runs one seeded fleet per grid
point; these tests pin the sweep's boundary behavior rather than its
happy path (which the CLI smoke and b04-adjacent benches cover):

* an *empty* quota axis is a legal request for zero points, not an
  error — the curve renders with a header and no rows;
* a single-point sweep produces exactly one row whose knobs echo the
  base config's overrides;
* with no storm armed, ``storm_recover_s`` is 0.0 and the table
  renders the storm column as ``-``;
* invalid axes (unknown admission mode, static without a write cap,
  nonpositive retention) fail fast with :class:`ReproError` before
  any fleet runs.
"""

from __future__ import annotations

import pytest

from repro.config import FleetConfig
from repro.errors import ReproError
from repro.fleet.planner import (
    PLAN_ADMISSION_MODES,
    ProvisioningCurve,
    peak_bandwidth,
    plan_point,
    run_plan,
    storm_time_to_recover,
)


def base_config(**overrides) -> FleetConfig:
    defaults = dict(
        num_jobs=4,
        intervals_per_job=2,
        seed=11,
        inject_failures=False,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


class TestDegenerateGrids:
    def test_empty_quota_axis_yields_no_points(self):
        curve = run_plan(base_config(), quotas=())
        assert curve.points == ()
        assert curve.num_jobs == 4
        # The empty curve still formats: header + column row, no data.
        formatted = curve.format()
        assert "Provisioning curve" in formatted
        assert len(formatted.splitlines()) == 2

    def test_single_point_sweep(self):
        curve = run_plan(
            base_config(),
            quotas=(None,),
            keep_lasts=(3,),
            admissions=("none",),
        )
        assert len(curve.points) == 1
        point = curve.points[0]
        assert point.quota_bytes is None
        assert point.keep_last == 3
        assert point.admission == "none"
        assert point.duration_s > 0

    def test_grid_order_is_quota_keep_admission(self):
        curve = run_plan(
            base_config(),
            quotas=(None, 1 << 30),
            keep_lasts=(1, 2),
            admissions=("none",),
        )
        knobs = [
            (p.quota_bytes, p.keep_last) for p in curve.points
        ]
        assert knobs == [
            (None, 1),
            (None, 2),
            (1 << 30, 1),
            (1 << 30, 2),
        ]


class TestStormOff:
    def test_no_storm_recovers_in_zero(self):
        point = plan_point(base_config())
        assert point.storm_recover_s == 0.0

    def test_storm_column_renders_dash(self):
        curve = run_plan(base_config())
        assert curve.storm_domain is None
        row = curve.format().splitlines()[-1]
        assert "-" in row
        assert "s" not in row.split()[-3]  # no seconds value rendered

    def test_storm_time_to_recover_reads_storm_samples_only(self):
        _, report = __import__(
            "repro.fleet", fromlist=["run_fleet"]
        ).run_fleet(base_config())
        assert report.storm is None
        assert storm_time_to_recover(report) == 0.0

    def test_peak_bandwidth_of_empty_series_is_zero(self):
        assert peak_bandwidth(()) == 0.0
        assert peak_bandwidth(((0.0, 1.0, 5.0), (1.0, 2.0, 9.0))) == 9.0


class TestAxisValidation:
    def test_unknown_admission_mode_rejected(self):
        with pytest.raises(ReproError):
            run_plan(base_config(), admissions=("quantum",))

    def test_static_requires_write_cap(self):
        assert "static" in PLAN_ADMISSION_MODES
        with pytest.raises(ReproError):
            run_plan(base_config(), admissions=("static",))

    def test_nonpositive_keep_last_rejected(self):
        with pytest.raises(ReproError):
            run_plan(base_config(), keep_lasts=(0,))

    def test_validation_happens_before_any_runs(self):
        """A bad axis must fail even when quotas would be swept first
        (no partial sweeps)."""
        with pytest.raises(ReproError):
            run_plan(
                base_config(),
                quotas=(None, 1 << 30),
                admissions=("none", "bogus"),
            )


class TestCurveShape:
    def test_curve_is_frozen_and_echoes_the_base(self):
        curve = run_plan(base_config(seed=23))
        assert isinstance(curve, ProvisioningCurve)
        assert curve.seed == 23
        with pytest.raises(Exception):
            curve.points = ()
