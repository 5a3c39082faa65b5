"""Ablation a08: wasted work scales with the checkpoint interval.

Paper section 1, criterion (2): "taking a checkpoint every 1000 batches
of training data may lead to wasting time re-training those 1000
batches. Taking a checkpoint after 5000 batches leads to 5x more wasted
work in the worst case."

The job-queue simulation quantifies the average-case version: with failures
uniform within an interval, expected loss per failure is interval/2, so
wasted hours scale ~linearly with the interval. The bench sweeps a 5x
interval ratio and checks the wasted-work ratio lands near 5x.
"""

from __future__ import annotations

from repro.failures import ExponentialFailures, JobQueueSim, make_job_batch

TITLE = "Ablation a08 - wasted work vs checkpoint interval (intro claim)"

INTERVALS_H = (0.2, 0.5, 1.0)  # 5x between first and last


def _run():
    results = {}
    for interval in INTERVALS_H:
        scheduler = JobQueueSim(
            num_clusters=8,
            failure_model=ExponentialFailures(6 * 3600.0),
            checkpoint_interval_hours=interval,
            seed=42,
        )
        jobs = make_job_batch(200, mean_required_hours=24.0, seed=43)
        report = scheduler.run(jobs)
        results[interval] = {
            "failures": report.total_failures,
            "wasted_h": report.total_wasted_hours,
            "per_failure_h": report.total_wasted_hours
            / max(1, report.total_failures),
        }
    return results


def test_a08_wasted_work(benchmark, report):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)

    report.table(
        "interval_h   failures   wasted_h   wasted_per_failure_h",
        [
            f"{interval:10.1f}   {r['failures']:8d}   "
            f"{r['wasted_h']:8.1f}   {r['per_failure_h']:20.3f}"
            for interval, r in results.items()
        ],
    )

    # Wasted work per failure grows with the interval...
    per_failure = [results[i]["per_failure_h"] for i in INTERVALS_H]
    assert per_failure == sorted(per_failure)
    # ...and the 5x interval ratio produces ~5x the per-failure waste
    # (expected loss is interval/2 under uniform failure placement).
    ratio = per_failure[-1] / per_failure[0]
    assert 3.0 < ratio < 7.0, f"expected ~5x, got {ratio:.1f}x"
    report.row(
        f"5x longer interval -> {ratio:.1f}x more wasted work per "
        "failure (paper's intro: 5x in the worst case)"
    )
