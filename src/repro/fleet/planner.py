"""Fig-16-style capacity planner: sweep provisioning knobs per fleet.

The paper sizes the checkpoint store from fleet telemetry: Fig 16
plots the storage a fleet needs as a function of how many checkpoints
each job retains. This module generalises that curve into a small
capacity planner. :func:`run_plan` sweeps the three provisioning knobs
an operator actually controls —

* ``per_job_quota_bytes`` — the per-job live-byte cap on the store,
* ``keep_last`` — retention depth (checkpoints kept per job),
* ``admission_mode`` — write-admission control on the shared link,

— re-running the *same seeded fleet* at every grid point, so the only
thing that varies between rows is the knob under study. Each point
reports what provisioning decisions hinge on: fleet peak physical
storage, peak write/read link bandwidth, and — when a
correlated storm is armed — the fleet's time-to-recover, plus the
quota rejections and admission deferrals the setting caused.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..config import FleetConfig
from ..errors import ReproError
from ..reporting import series
from .experiment import FleetRunReport, job_totals, run_fleet

#: Admission modes :func:`run_plan` accepts in its sweep axis.
PLAN_ADMISSION_MODES = ("none", "static", "dynamic")


@dataclass(frozen=True)
class PlanPoint:
    """One grid point of the provisioning sweep: knobs + outcomes."""

    #: Per-job live physical-byte quota (None = unlimited).
    quota_bytes: int | None
    #: Retention depth: checkpoints kept per job.
    keep_last: int
    #: Admission-control mode ("none", "static" or "dynamic").
    admission: str

    #: The capacity the shared store must actually provision.
    peak_physical_bytes: int = series(
        "Fleet peak live physical bytes at this grid point."
    )
    peak_put_bandwidth: float = series(
        "Peak windowed PUT bandwidth (bytes/sec)."
    )
    peak_get_bandwidth: float = series(
        "Peak windowed GET bandwidth (bytes/sec)."
    )
    #: Worst trigger-to-finish storm-restore latency across the fleet
    #: (also 0.0 when none of an armed storm's restores landed).
    storm_recover_s: float = series(
        "Fleet storm time-to-recover (0 = no storm).",
        name="storm_recover_seconds",
    )
    quota_rejections: int = series(
        "Quota-rejected PUTs at this grid point."
    )
    admission_deferrals: int = series(
        "Admission-deferred checkpoint triggers."
    )
    #: Simulated end-to-end fleet duration.
    duration_s: float


@dataclass(frozen=True)
class ProvisioningCurve:
    """A full sweep: the fixed fleet shape plus one row per point."""

    num_jobs: int = series("Jobs in each swept fleet.", name="jobs")
    intervals_per_job: int
    seed: int
    storm_domain: str | None
    points: tuple[PlanPoint, ...] = series(
        "Grid points in this provisioning sweep."
    )

    def format(self) -> str:
        """Fig-16-style table, one row per grid point."""
        header = (
            f"== Provisioning curve: {self.num_jobs} jobs x "
            f"{self.intervals_per_job} intervals (seed {self.seed}, "
            f"storm {self.storm_domain or 'none'}) =="
        )
        cols = (
            f"{'quota':>10}  {'keep':>4}  {'admission':>9}  "
            f"{'peak store':>12}  {'peak put bw':>13}  "
            f"{'peak get bw':>13}  {'storm rec':>9}  "
            f"{'rejects':>7}  {'defers':>6}"
        )
        lines = [header, cols]
        for p in self.points:
            storm = (
                f"{p.storm_recover_s:8.2f}s"
                if p.storm_recover_s > 0.0
                else f"{'-':>9}"
            )
            lines.append(
                f"{_fmt_quota(p.quota_bytes):>10}  "
                f"{p.keep_last:>4}  {p.admission:>9}  "
                f"{_fmt_bytes(p.peak_physical_bytes):>12}  "
                f"{_fmt_bytes(p.peak_put_bandwidth):>11}/s  "
                f"{_fmt_bytes(p.peak_get_bandwidth):>11}/s  "
                f"{storm}  {p.quota_rejections:>7}  "
                f"{p.admission_deferrals:>6}"
            )
        return "\n".join(lines)


def _fmt_bytes(value: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024.0 or unit == "GiB":
            return f"{value:.1f} {unit}"
        value /= 1024.0
    raise AssertionError("unreachable")


def _fmt_quota(quota: int | None) -> str:
    return "none" if quota is None else _fmt_bytes(quota)


def peak_bandwidth(
    series: Iterable[tuple[float, float, float]],
) -> float:
    """Max windowed bytes/sec over a report's bandwidth series."""
    return max((rate for _, _, rate in series), default=0.0)


def storm_time_to_recover(report: FleetRunReport) -> float:
    """Worst storm-restore latency across the fleet, 0.0 if no storm.

    Every storm victim restores through the shared link at once; the
    fleet has recovered when the *slowest* of those restores lands, so
    time-to-recover is the max trigger-to-finish latency over restore
    samples tagged ``cause == "storm"``.
    """
    if report.storm is None:
        return 0.0
    return max(
        (
            sample.latency_s
            for job in report.jobs
            for sample in job.restore_samples
            if sample.cause == "storm"
        ),
        default=0.0,
    )


def plan_point(config: FleetConfig) -> PlanPoint:
    """Run one grid point's fleet and distil the provisioning row."""
    _, report = run_fleet(config)
    return PlanPoint(
        quota_bytes=config.per_job_quota_bytes,
        keep_last=config.keep_last,
        admission=config.admission_mode,
        peak_physical_bytes=report.peak_physical_bytes,
        peak_put_bandwidth=peak_bandwidth(report.bandwidth_series),
        peak_get_bandwidth=peak_bandwidth(
            report.read_bandwidth_series
        ),
        storm_recover_s=storm_time_to_recover(report),
        quota_rejections=job_totals(report.jobs)["quota_rejections"],
        admission_deferrals=report.admission_deferrals,
        duration_s=report.duration_s,
    )


def run_plan(
    base: FleetConfig,
    quotas: Sequence[int | None] = (None,),
    keep_lasts: Sequence[int] = (2,),
    admissions: Sequence[str] = ("none",),
) -> ProvisioningCurve:
    """Sweep quota x retention x admission over one seeded fleet.

    ``base`` fixes everything the sweep does not vary (jobs, seed,
    storm arming, backend...), including the ``max_concurrent_writes``
    cap the ``"static"`` points run with. Points run in deterministic
    grid order (quota outermost, admission innermost).
    """
    for admission in admissions:
        if admission not in PLAN_ADMISSION_MODES:
            raise ReproError(
                f"unknown admission mode {admission!r}; expected one "
                f"of {PLAN_ADMISSION_MODES}"
            )
        if (
            admission == "static"
            and base.max_concurrent_writes is None
        ):
            raise ReproError(
                "admission mode 'static' needs "
                "max_concurrent_writes set on the base config"
            )
    for keep_last in keep_lasts:
        if keep_last < 1:
            raise ReproError(
                f"keep_last must be >= 1, got {keep_last}"
            )
    points: list[PlanPoint] = []
    for quota in quotas:
        for keep_last in keep_lasts:
            for admission in admissions:
                config = dataclasses.replace(
                    base,
                    per_job_quota_bytes=quota,
                    keep_last=keep_last,
                    admission_mode=admission,
                    max_concurrent_writes=(
                        base.max_concurrent_writes
                        if admission == "static"
                        else None
                    ),
                )
                points.append(plan_point(config))
    return ProvisioningCurve(
        num_jobs=base.num_jobs,
        intervals_per_job=base.intervals_per_job,
        seed=base.seed,
        storm_domain=base.storm_domain,
        points=tuple(points),
    )
