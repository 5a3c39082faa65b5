"""Prometheus-textfile metrics for scans, fleet runs, plans, serving.

A minimal renderer for the `Prometheus text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ —
just gauges/counters with optional labels, which is all the node
exporter's *textfile collector* ingests. No client library dependency:
the format is a few lines of string assembly, and keeping it in-repo
means every ``--metrics-out`` works in any environment the simulator
runs in.

No series is listed here. A report dataclass declares its exported
fields where it declares the fields (:func:`repro.reporting.series`),
and :func:`report_metrics` turns any such report into samples; the
four ``*_metrics`` functions below only name each operator surface's
prefix and labels. ``docs/metrics.md`` is generated from the same
declarations.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..reporting import declared_series

#: Metric name prefix for everything this repo exports.
PREFIX = "repro"


@dataclass(frozen=True)
class Metric:
    """One sample of the text exposition format."""

    name: str
    value: float
    help: str = ""
    type: str = "gauge"  # "gauge" or "counter"
    labels: tuple[tuple[str, str], ...] = ()

    def sample_line(self) -> str:
        if self.labels:
            body = ",".join(
                f'{k}="{_escape_label(v)}"' for k, v in self.labels
            )
            series = f"{self.name}{{{body}}}"
        else:
            series = self.name
        value = (
            str(int(self.value))
            if float(self.value).is_integer()
            else repr(float(self.value))
        )
        return f"{series} {value}"


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def render_textfile(metrics: list[Metric]) -> str:
    """Render metrics in exposition format, HELP/TYPE once per name.

    Samples keep their given order within a metric name; names appear
    in first-seen order, so output is deterministic for a fixed input.
    """
    by_name: dict[str, list[Metric]] = {}
    for metric in metrics:
        by_name.setdefault(metric.name, []).append(metric)
    lines: list[str] = []
    for name, group in by_name.items():
        head = group[0]
        if head.help:
            lines.append(f"# HELP {name} {head.help}")
        lines.append(f"# TYPE {name} {head.type}")
        lines.extend(m.sample_line() for m in group)
    return "\n".join(lines) + "\n"


def write_textfile(path: str | Path, metrics: list[Metric]) -> Path:
    """Write a ``.prom`` textfile; returns the path written."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(render_textfile(metrics), encoding="utf-8")
    return target


def report_metrics(
    report, prefix: str, labels: tuple[tuple[str, str], ...] = ()
) -> list[Metric]:
    """One sample per series the report's dataclass declares.

    Series are named ``repro_<prefix>_<name>``; every sample carries
    ``labels``. Sized values export their ``len()``.
    """
    metrics = []
    for attr, spec in declared_series(type(report)):
        value = getattr(report, attr)
        metrics.append(
            Metric(
                f"{PREFIX}_{prefix}_{spec.name or attr}",
                value if isinstance(value, (int, float)) else len(value),
                help=spec.help,
                type=spec.type,
                labels=labels,
            )
        )
    return metrics


def scan_metrics(report) -> list[Metric]:
    """``repro scan``: an :class:`~repro.core.integrity.IntegrityReport`.

    Every series carries a ``job`` label so scans over several jobs
    concatenate into one textfile.
    """
    return report_metrics(report, "scan", (("job", report.job_id),))


def fleet_metrics(report) -> list[Metric]:
    """``repro fleet``: a :class:`~repro.fleet.experiment.FleetRunReport`."""
    return report_metrics(report, "fleet")


def plan_metrics(curve) -> list[Metric]:
    """``repro plan``: a :class:`~repro.fleet.planner.ProvisioningCurve`.

    Each point's series carry its knobs as labels, so one textfile
    holds the whole curve and dashboards can plot peak storage against
    retention depth directly.
    """
    metrics = report_metrics(curve, "plan")
    for point in curve.points:
        quota = "none" if point.quota_bytes is None else str(point.quota_bytes)
        labels = (
            ("quota", quota),
            ("keep_last", str(point.keep_last)),
            ("admission", point.admission),
        )
        metrics += report_metrics(point, "plan", labels)
    return metrics


def serving_metrics(report) -> list[Metric]:
    """``repro serve``: a :class:`~repro.serving.fleet.ServingReport`."""
    return report_metrics(report, "serving")
