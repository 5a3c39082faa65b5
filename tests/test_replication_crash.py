"""Correlated-failure behavior of the peer-replication tier.

The recovery ladder only helps if it *refuses* to help when the blast
radius swallowed the replicas. These tests pin the failure-domain
semantics:

* a power storm (or a rack storm whose rack holds the whole fleet)
  kills every host at once — all rings die with their hosts, every
  victim's ladder comes up empty, and recovery falls back to the
  object store / scratch path, never a dead or stale replica;
* a rack storm with cross-rack placement leaves the cross-rack rings
  alive: victims restore from peers, those reads never touch the
  storage link, and the storm's GET traffic drops against the same
  seeded trace without replication;
* a crash scheduled mid-send aborts the reservation: the partial ring
  write is discarded (``repl_partial_discards``) and every surviving
  ring still satisfies its structural invariants;
* ring lifecycle bookkeeping: host deaths retire rings
  (``repl_rings_lost``) and later baseline flushes re-establish them
  (``repl_rings_rebuilt``) by shipping a fresh anchor.
"""

from __future__ import annotations

import pytest

from repro.config import FailureConfig, FleetConfig
from repro.fleet import build_fleet, run_fleet


def storm_config(
    storm_domain: str,
    rack_size: int,
    k: int = 2,
    seed: int = 47,
    **overrides,
) -> FleetConfig:
    defaults = dict(
        num_jobs=6,
        intervals_per_job=4,
        seed=seed,
        replicate_k=k,
        quantizer_choices=("none",),
        bit_width_choices=(4,),
        priority_mix=0.5,
        storm_domain=storm_domain,
        rack_size=rack_size,
        # Default (long) time-to-failure: the storm is the only
        # failure that fires inside these short runs.
        inject_failures=True,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


class TestWholeDomainLoss:
    """Storms that take the replicas down with the owners."""

    @pytest.mark.parametrize(
        "domain, rack_size",
        [
            ("power", 4),
            # One rack spanning the whole fleet: every "cross-rack"
            # candidate is actually in the blast radius.
            ("rack", 6),
        ],
        ids=["power-storm", "fleet-wide-rack"],
    )
    def test_all_replicas_dead_forces_storage_fallback(
        self, domain, rack_size
    ):
        config = storm_config(domain, rack_size)
        scheduler, report = run_fleet(config)
        assert report.storm is not None
        victims = report.storm[3]
        assert len(victims) == config.num_jobs
        # No ring survived the domain, so the ladder found nothing.
        assert report.repl_peer_restores == 0
        assert report.repl_store_fallbacks >= len(victims)
        assert report.repl_rings_lost > 0
        # Every victim still recovered — through the store (or from
        # scratch when nothing restorable landed), never a dead ring.
        for job in report.jobs:
            if job.job_id not in victims:
                continue
            assert job.restores + job.scratch_restarts > 0
            for sample in job.restore_samples:
                assert sample.source == "store"

    def test_storm_bookkeeping_precedes_any_recovery(self):
        """The first victim to recover must already see the *whole*
        blast radius dead — no stale read from a ring whose host died
        in the same storm."""
        config = storm_config("power", 4)
        events = []
        scheduler, store = build_fleet(config)
        scheduler.on_event = events.append
        scheduler.run()
        storm_crashes = [
            e for e in events
            if e.kind == "crash" and e.payload.get("cause") == "storm"
        ]
        assert storm_crashes
        for event in storm_crashes:
            restored_from = event.payload.get("restored_from")
            assert restored_from is None or not str(
                restored_from
            ).startswith("peer:")


class TestCrossRackSurvival:
    """Small racks: cross-rack rings outlive the storm."""

    def test_victims_restore_from_cross_rack_peers(self):
        config = storm_config("rack", rack_size=2)
        scheduler, report = run_fleet(config)
        assert report.storm is not None
        assert report.repl_peer_restores > 0
        peer_samples = [
            s
            for job in report.jobs
            for s in job.restore_samples
            if s.source.startswith("peer_")
        ]
        assert peer_samples
        # The same-rack peer died in the same storm; survivors are by
        # construction on other racks.
        storm_peer_samples = [
            s for s in peer_samples if s.cause == "storm"
        ]
        assert storm_peer_samples
        for sample in storm_peer_samples:
            assert sample.source == "peer_cross_rack"

    def test_peer_reads_bypass_the_storage_link(self):
        """Same seeded trace, with and without replication: peer
        recoveries take their bytes off the shared store's GET side."""
        with_repl = storm_config("rack", rack_size=2)
        without_repl = storm_config("rack", rack_size=2, k=0)
        _, repl_report = run_fleet(with_repl)
        _, base_report = run_fleet(without_repl)
        assert repl_report.storm is not None
        assert base_report.storm is not None
        assert repl_report.repl_peer_restores > 0
        assert repl_report.total_get_bytes < base_report.total_get_bytes

    def test_rings_lost_then_rebuilt_at_baseline_flush(self):
        config = storm_config(
            "rack",
            rack_size=2,
            intervals_per_job=8,
            # Flush (and thus rebuild dead rings) every interval.
            baseline_flush_intervals=1,
        )
        scheduler, report = run_fleet(config)
        assert report.repl_rings_lost > 0
        assert report.repl_rings_rebuilt > 0
        # After the run every owner's placement is fully populated
        # again (dead rings were re-established by anchor resend).
        replicator = scheduler.replicator
        for owner_id, hosts in replicator.peers.items():
            if scheduler._jobs_by_id[owner_id].batches_left == 0:
                continue  # owner finished before its next flush
            for ring in replicator.rings[owner_id].values():
                ring.check_invariants()


class TestPartialSendDiscard:
    """A crash mid-send leaves no torn delta behind."""

    def crash_heavy_config(self, seed: int) -> FleetConfig:
        return FleetConfig(
            num_jobs=6,
            intervals_per_job=6,
            seed=seed,
            replicate_k=2,
            quantizer_choices=("none",),
            bit_width_choices=(4,),
            inject_failures=True,
            priority_mix=0.5,
            failures=FailureConfig(
                mean_time_to_failure_s=120.0, min_failure_s=5.0
            ),
        )

    def test_partial_sends_are_discarded_not_committed(self):
        discards = 0
        for seed in (11, 23, 47):
            scheduler, report = run_fleet(self.crash_heavy_config(seed))
            discards += report.repl_partial_discards
            # Whatever the crash pattern, no ring is ever left torn:
            # accounting, budget and step-monotonicity all hold.
            for rings in scheduler.replicator.rings.values():
                for ring in rings.values():
                    ring.check_invariants()
        assert discards > 0
