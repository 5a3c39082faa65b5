"""Fleet-wide peer-memory replication: placement, sends, liveness.

The :class:`PeerReplicator` is the fleet scheduler's one handle on the
replication tier. At construction it places K replica rings per job —
rack-aware, using the *same* failure-domain assignment the storm
planner uses, so "same rack" here means "dies with me in a rack
storm" — and registers one ``repl:{job}`` stream per job with the
link arbiter under :data:`~repro.storage.bandwidth.TIER_REPLICATION`
(strictly below every training tier).

During the run the scheduler calls:

* :meth:`on_step` after every training batch — captures the step
  delta and pushes it to each peer ring over the peer link (sender's
  clock pays the transfer; the storage timeline never sees it). A
  send that would cross the owner's scheduled failure is *aborted*:
  the partial ring write is discarded and remaining peers are skipped,
  modelling a host that died mid-transfer.
* :meth:`on_job_death` during crash bookkeeping — rings hosted *by*
  the dead job vanish with its memory; rings it *owns* on live peers
  survive and are exactly what recovery reads.
* :meth:`best_replica` at recovery — the preference ladder: live
  same-rack ring, then live cross-rack ring, newest-step first within
  each; ``None`` sends the scheduler to the object store
  (``plan_resume`` fallback).
* :meth:`rebase_rings` when a baseline flush lands — folds every
  surviving ring's log into its anchor (free: the host already holds
  the bytes) and re-establishes rings lost to host deaths by shipping
  a fresh full anchor (paid on the peer link).
* :meth:`resync_after_recovery` after any recovery — drops rings
  whose replica step disagrees with the state the owner resumed from,
  so the delta log never forks.
"""

from __future__ import annotations

import numpy as np

from ..failures.domains import DOMAIN_RACK, assign_domains
from ..storage.bandwidth import TIER_REPLICATION, transfer_time_s
from .ring import MemoryRing
from .state import ReplicaState, capture_delta

#: Seed tweak for the peer-placement RNG (decorrelates placement from
#: every other seeded draw in the fleet).
PLACEMENT_SEED_XOR = 0x9EE9


def replication_stream_id(job_id: str) -> str:
    """Arbiter stream carrying one job's outbound replica traffic."""
    return f"repl:{job_id}"


class PeerReplicator:
    """Owns every job's replica rings and the peer-link accounting."""

    def __init__(self, config, jobs, arbiter) -> None:
        self.config = config
        self.arbiter = arbiter
        self._jobs_by_id = {job.job_id: job for job in jobs}
        job_ids = sorted(self._jobs_by_id)
        domains = assign_domains(
            job_ids,
            DOMAIN_RACK,
            rack_size=config.rack_size,
            tiers={job.job_id: job.tier for job in jobs},
        )
        self._rack_of = {
            job_id: domain.domain_id
            for domain in domains
            for job_id in domain.job_ids
        }
        self.peers = self._place_peers(job_ids)
        for job_id in job_ids:
            arbiter.register(
                replication_stream_id(job_id),
                tier=TIER_REPLICATION,
            )
        #: rings[owner][host] — owner's replica in host's memory.
        self.rings: dict[str, dict[str, MemoryRing]] = {}
        for owner_id in job_ids:
            owner = self._jobs_by_id[owner_id]
            self.rings[owner_id] = {
                host_id: self._new_ring(owner, host_id)
                for host_id in self.peers[owner_id]
            }
        # Counter residue of destroyed rings, so fleet totals survive
        # ring churn.
        self._retired_evictions = 0

    # -- placement -----------------------------------------------------

    def _place_peers(self, job_ids: list[str]) -> dict[str, tuple[str, ...]]:
        """K peers per owner: 1 same-rack (fast restore), rest cross.

        Cross-rack replicas are what survive a rack storm; the single
        same-rack copy is the cheap nearest restore for independent
        failures. Seeded and iterated in sorted-owner order, so
        placement is deterministic for a fleet seed.
        """
        rng = np.random.default_rng(self.config.seed ^ PLACEMENT_SEED_XOR)
        placement: dict[str, tuple[str, ...]] = {}
        for owner in job_ids:
            same = [
                j
                for j in job_ids
                if j != owner and self._rack_of[j] == self._rack_of[owner]
            ]
            cross = [
                j
                for j in job_ids
                if j != owner and self._rack_of[j] != self._rack_of[owner]
            ]
            same = [same[i] for i in rng.permutation(len(same))]
            cross = [cross[i] for i in rng.permutation(len(cross))]
            chosen: list[str] = []
            if same:
                chosen.append(same.pop(0))
            while len(chosen) < self.config.replicate_k and cross:
                chosen.append(cross.pop(0))
            while len(chosen) < self.config.replicate_k and same:
                chosen.append(same.pop(0))
            placement[owner] = tuple(sorted(chosen))
        return placement

    def same_rack(self, a: str, b: str) -> bool:
        return self._rack_of[a] == self._rack_of[b]

    def _new_ring(self, owner, host_id: str) -> MemoryRing:
        return MemoryRing(
            owner_id=owner.job_id,
            host_id=host_id,
            capacity_bytes=self.config.peer_ring_bytes,
            anchor=ReplicaState.from_job(owner),
            same_rack=self.same_rack(owner.job_id, host_id),
        )

    # -- peer-link timing ----------------------------------------------

    def peer_time_s(self, nbytes: int, same_rack: bool) -> float:
        """Transfer time on the peer link (cross-rack pays a factor)."""
        bandwidth = self.config.peer_bandwidth
        latency = self.config.peer_latency_s
        if not same_rack:
            bandwidth /= self.config.peer_cross_rack_factor
            latency *= self.config.peer_cross_rack_factor
        return transfer_time_s(nbytes, bandwidth, latency)

    # -- per-step replication ------------------------------------------

    def on_step(self, job, result) -> None:
        """Mirror one finished batch's delta to the owner's peers.

        The owner's clock pays each send in deterministic host order.
        If a send would straddle the job's scheduled failure time, the
        clock advances *to* the failure instead, the reservation is
        aborted (the ring materializes as if the send never started)
        and remaining peers are skipped — the scheduler's failure
        check then crashes the job.
        """
        rings = self.rings.get(job.job_id)
        if not rings:
            return
        delta = capture_delta(job, result)
        crash_pending = (
            self.config.inject_failures
            and job.next_failure_s is not None
            and job.failures < self.config.max_failures_per_job
        )
        stream = replication_stream_id(job.job_id)
        for host_id in sorted(rings):
            ring = rings[host_id]
            send_s = self.peer_time_s(delta.nbytes, ring.same_rack)
            reservation = ring.reserve(delta.nbytes)
            if (
                crash_pending
                and job.clock.now + send_s > job.next_failure_s
            ):
                ring.abort(reservation)
                job.repl_partial_discards += 1
                job.clock.advance_to(
                    job.next_failure_s, "peer-replication-torn"
                )
                break
            job.clock.advance(send_s, "peer-replication")
            self.arbiter.on_transfer(stream, delta.nbytes, "put")
            ring.commit(reservation, delta)
            job.repl_deltas_sent += 1
            job.repl_bytes_sent += delta.nbytes

    # -- baseline flushes ----------------------------------------------

    def is_flush_interval(self, job) -> bool:
        """Does this trigger write a store baseline (vs replicate)?"""
        interval = job.controller.interval_index
        return interval % self.config.baseline_flush_intervals == 0

    def rebase_rings(self, job) -> None:
        """Align rings with a just-begun baseline flush.

        Surviving rings fold their log into the anchor for free. Rings
        lost to a host death are re-established by shipping a full
        anchor over the peer link (the one moment replication pays
        full-state bytes).
        """
        rings = self.rings.setdefault(job.job_id, {})
        stream = replication_stream_id(job.job_id)
        for host_id in self.peers[job.job_id]:
            ring = rings.get(host_id)
            if ring is not None:
                ring.rebase()
                continue
            ring = self._new_ring(job, host_id)
            nbytes = ring.anchor.total_nbytes
            job.clock.advance(
                self.peer_time_s(nbytes, ring.same_rack),
                "peer-ring-rebuild",
            )
            self.arbiter.on_transfer(stream, nbytes, "put")
            rings[host_id] = ring
            job.repl_rings_rebuilt += 1
            job.repl_bytes_sent += nbytes

    # -- liveness ------------------------------------------------------

    def on_job_death(self, job_id: str) -> None:
        """A host died: every ring living in its memory dies with it."""
        for owner_id in sorted(self.rings):
            ring = self.rings[owner_id].pop(job_id, None)
            if ring is not None:
                self._retire(ring)
                self._jobs_by_id[owner_id].repl_rings_lost += 1

    def best_replica(self, owner_id: str) -> MemoryRing | None:
        """Recovery ladder: same rack, then cross rack; newest first."""
        rings = self.rings.get(owner_id)
        if not rings:
            return None
        return min(
            rings.values(),
            key=lambda ring: (
                0 if ring.same_rack else 1,
                -ring.last_step,
                ring.host_id,
            ),
        )

    def resync_after_recovery(self, job, restored_step=None) -> None:
        """Drop rings that disagree with the state the owner resumed at.

        After a store or scratch recovery every ring is ahead of the
        owner (``restored_step=None`` drops them all); after a peer
        recovery only rings whose partial sends left them at another
        step are dropped. Dropped rings come back at the owner's next
        baseline flush.
        """
        rings = self.rings.get(job.job_id)
        if not rings:
            return
        for host_id in sorted(rings):
            ring = rings[host_id]
            if restored_step is None or ring.last_step != restored_step:
                self._retire(rings.pop(host_id))
                job.repl_rings_lost += 1

    def _retire(self, ring: MemoryRing) -> None:
        self._retired_evictions += ring.evictions

    # -- fleet-report aggregates ---------------------------------------

    def _live_rings(self):
        for hosts in self.rings.values():
            yield from hosts.values()

    @property
    def total_ring_evictions(self) -> int:
        return self._retired_evictions + sum(
            ring.evictions for ring in self._live_rings()
        )
