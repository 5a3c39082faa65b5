"""One job crashing and recovering on the one crash path: a one-job fleet.

A single job is crash-tested as the only job of a
:class:`~repro.fleet.FleetScheduler` under a given failure model
(:func:`repro.fleet.one_job_fleet`): the same crash→restore sequence
(torn-write abort, unlanded-write discard, staged restore, scratch
restart) every multi-job fleet and restore storm runs.
"""

from __future__ import annotations

from repro.config import FailureConfig
from repro.experiments import small_config
from repro.failures import ExponentialFailures, ScheduledFailures
from repro.fleet import one_job_fleet


def run_job(
    failure_model, intervals: int, seed: int, max_failures=1000, **config
):
    """Train ``intervals`` intervals under ``failure_model``; returns
    the scheduler, its job and the job's crash events."""
    exp_config = small_config(num_tables=2, batch_size=32, **config)
    exp_config = exp_config.with_overrides(failures=FailureConfig(seed=seed))
    scheduler, _ = one_job_fleet(
        exp_config,
        intervals,
        failure_model=failure_model,
        max_failures=max_failures,
    )
    scheduler.run()
    job = scheduler.jobs[0]
    crashes = [e for e in scheduler.events if e.kind == "crash"]
    return scheduler, job, crashes


def goodput(job) -> float:
    return job.useful_batches / job.batches_trained


class TestCrashRecovery:
    def test_injected_failures_trigger_restores(self):
        # Run lasts ~5 simulated seconds; MTTF 1.5 s guarantees crashes.
        _, job, crashes = run_job(
            ExponentialFailures(1.5),
            6,
            seed=5,
            interval_batches=5,
            rows_per_table=512,
        )
        assert job.training_done()
        assert job.failures == len(crashes) > 0
        assert any(e.payload["restored_from"] for e in crashes)
        assert job.batches_trained >= job.model.batches_trained
        assert 0 < goodput(job) <= 1.0

    def test_no_failures_is_clean_run(self):
        _, job, crashes = run_job(
            ExponentialFailures(1e12),  # effectively never
            3,
            seed=6,
            interval_batches=3,
            rows_per_table=256,
        )
        assert job.failures == 0 and not crashes
        assert goodput(job) == 1.0
        assert job.wasted_batches == 0

    def test_crash_before_first_checkpoint_restarts_scratch(self):
        _, job, crashes = run_job(
            ExponentialFailures(2.0),  # fails mid-first-interval
            1,
            seed=7,
            max_failures=1,
            interval_batches=50,
            rows_per_table=256,
        )
        assert crashes[0].payload["restored_from"] is None
        assert job.scratch_restarts == 1

    def test_training_completes_under_repeated_failures(self):
        _, job, crashes = run_job(
            ExponentialFailures(2.0),
            8,
            seed=21,
            interval_batches=5,
            rows_per_table=512,
            quantizer="asymmetric",
            bit_width=8,
        )
        assert job.training_done()
        assert len(crashes) >= 1
        # Effective progress equals the full target.
        assert job.model.batches_trained == 8 * 5

    def test_more_frequent_checkpoints_waste_less(self):
        wasted = {}
        for interval in (2, 10):
            _, job, _ = run_job(
                ExponentialFailures(3.0),
                20 // interval * 2,
                seed=7,
                interval_batches=interval,
                rows_per_table=512,
            )
            wasted[interval] = job.wasted_batches / max(1, job.failures)
        assert wasted[2] <= wasted[10]

    def test_deterministic_injection(self):
        """A scheduled model makes failure injection reproducible."""

        def run():
            return run_job(
                ScheduledFailures([1.0, 1.2]),
                6,
                seed=1,
                interval_batches=4,
                rows_per_table=256,
            )

        (_, a, a_crashes), (_, b, b_crashes) = run(), run()
        assert a.failures == b.failures == 2
        assert a.wasted_batches == b.wasted_batches
        assert [e.time_s for e in a_crashes] == [
            e.time_s for e in b_crashes
        ]

    def test_injected_crash_mid_write_recovers(self):
        # Fail precisely once, shortly after the first checkpoint
        # triggers (while its write is still in flight).
        _, job, crashes = run_job(
            ScheduledFailures([0.9]),
            4,
            seed=3,
            interval_batches=4,
            rows_per_table=512,
        )
        assert len(crashes) == 1
        assert job.training_done()
        assert job.model.batches_trained == 16


class TestUnlandedWrite:
    def test_crash_before_the_manifest_lands_discards_the_write(self):
        """The crash kills the background write pipeline (section
        4.4): a checkpoint whose manifest PUT was submitted but had not
        landed must never become valid, be restored, or serve as a
        later increment's base — and its objects are gone."""
        exp_config = small_config(
            interval_batches=4,
            num_tables=2,
            rows_per_table=512,
            batch_size=32,
        )
        doomed = "ckpt-000001"
        crashed_at: list[float] = []

        def on_event(event):
            # The write's last PUT (its manifest) is submitted and the
            # write booked; its bytes land at valid_at_s. Crash the job
            # at its next event, which is earlier.
            if (
                event.kind == "written"
                and event.payload["checkpoint_id"] == doomed
            ):
                assert event.payload["valid_at_s"] > event.time_s
                crashed_at.append(event.time_s)
                scheduler.inject_crash(event.job_id)

        scheduler, exp = one_job_fleet(exp_config, 5, on_event=on_event)
        scheduler.run()
        job = scheduler.jobs[0]
        (crash,) = [e for e in scheduler.events if e.kind == "crash"]
        assert crash.time_s >= crashed_at[0]
        assert crash.payload["torn_checkpoint"] is None
        assert job.torn_writes == 1
        # Never valid, never restored, never a base.
        assert doomed not in exp.controller.manifests
        assert all(
            row[0] != doomed for row in crash.payload["valid_before"]
        )
        assert crash.payload["restored_from"] == "ckpt-000000"
        assert exp.controller._current_base_id != doomed
        assert all(
            m.base_id != doomed for m in exp.controller.manifests.values()
        )
        # Its objects are gone.
        assert not exp.store.list_keys(f"job0/{doomed}/")
        assert job.training_done()
