"""Co-simulated checkpoint-to-inference serving plane.

One training job checkpoints under Check-N-Run while a small inference
fleet answers Zipf-skewed embedding-row lookups against the latest
*published* checkpoint version — all on one shared object store, so
training-side chunk PUTs, publisher chain reads and serving-side row
GETs contend for the same link under the
:class:`~repro.storage.bandwidth.BandwidthArbiter` (serving streams in
the strict-priority ``serving`` tier, the training job in ``prod``).

The training job *is* a fleet job: a one-job
:class:`~repro.fleet.scheduler.FleetScheduler` owns its train steps,
checkpoint triggers and staged writes, and this driver merges that
scheduler's next event with its own (publish chain reads, flip
warm-reads, lookup miss GETs, request dispatch). Every staged operation
announces itself before submitting and the globally earliest
announcement runs next; who gets the link on a tie is the fleet's own
rule (:func:`~repro.fleet.eventqueue.pick_link_op`).
That interleaving is exactly what lets the run demonstrate the two
properties the report asserts: lookups straddle version flips (and
finish untorn on the version they started on), and cache capacity —
not link luck — moves the p99.

Queries reuse the *training* dataset's Zipfian samplers, so the serving
hot set is the same skewed row population whose modifications drive the
incremental checkpoints — the paper's observation that access skew
makes the recently-modified set the hot set, applied end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import ExperimentConfig, FleetConfig, check_fields, setting
from ..distributed.clock import SimClock
from ..errors import ServingError
from ..experiments.common import Experiment, build_experiment
from ..fleet.eventqueue import pick_link_op
from ..fleet.jobs import FleetJobSpec, enrol_experiment
from ..fleet.namespace import ScopedStore
from ..fleet.scheduler import FleetEvent, FleetScheduler
from ..reporting import derived_series, series
from ..storage.backends import Backend
from ..storage.bandwidth import (
    BandwidthArbiter,
    TIER_PROD,
    TIER_SERVING,
)
from ..storage.engine import StagedHandle
from ..storage.factory import make_backend
from ..storage.object_store import ObjectStore
from .chunks import DecodedChunkCache
from .publisher import ServingPublisher
from .server import InferenceServer, LookupRequest, LookupResult

#: Hard ceiling on driver iterations — a stuck loop raises, never spins.
MAX_EVENTS = 2_000_000

#: Stream id of the publisher's chain reads on the shared link.
PUBLISH_STREAM = "publish"


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the serving-plane co-simulation."""

    num_servers: int = setting(2, "inference servers", flag="--servers", ge=1)
    #: Per-server row-cache capacity (pinned hot rows + LRU ring).
    cache_rows: int = setting(
        256, "per-server row-cache capacity (pinned hot rows + LRU)"
    )
    qps: float = setting(200.0, "fleet-wide lookup arrival rate", gt=0)
    num_queries: int = setting(400, "lookup requests", flag="--queries", ge=0)
    hot_rows_per_table: int = setting(
        64,
        "hot rows the publisher announces (and servers pin) per table",
        flag="--pin-rows",
    )
    #: Fixed per-request service overhead on top of storage reads.
    lookup_overhead_s: float = setting(0.0002)
    warm_pins: bool = setting(
        True,
        "disable hot-row prefetch at version flips",
        flag="--no-warm-pins",
    )
    #: Check every served value against the golden per-version replica
    #: snapshot (the torn-lookup detector).
    verify: bool = setting(
        True,
        "skip the golden-snapshot torn-lookup verifier",
        flag="--no-verify",
    )
    seed: int = setting(7)
    train_intervals: int = setting(
        6,
        "checkpoint intervals the training job runs underneath",
        flag="--intervals",
        ge=1,
    )

    __post_init__ = check_fields


@dataclass
class ServingReport:
    """Outcome of one serving-plane co-simulation."""

    num_servers: int = series(
        "Inference servers in the serving fleet.", name="servers"
    )
    cache_rows: int = series(
        "Per-server row-cache capacity (pins + LRU ring)."
    )
    requests: int = series(
        "Lookup requests served.", name="lookups", type="counter"
    )
    rows_looked_up: int = series(
        "Embedding rows served across all requests.", type="counter"
    )
    cache_hits: int = series(
        "Row lookups answered from the row cache.", type="counter"
    )
    cache_misses: int = series(
        "Row lookups that read a checkpoint chunk.", type="counter"
    )
    lookup_p50_s: float = series(
        "Median lookup latency (arrival to completion)."
    )
    lookup_p99_s: float = series("99th-percentile lookup latency.")
    lookup_mean_s: float
    version_flips: int = series(
        "Atomic version flips across the fleet.", type="counter"
    )
    flip_stall_total_s: float = series(
        "Time spent warming caches before flips could land.",
        name="flip_stall_seconds_total",
        type="counter",
    )
    flip_stall_max_s: float
    version_lag_mean_s: float = series(
        "Mean age of the served version at lookup completion."
    )
    version_lag_max_s: float = series(
        "Worst served-version age observed."
    )
    #: Detected against the golden snapshot of the version they claim.
    torn_lookups: int = series(
        "Requests whose values mixed versions (must be 0).",
        type="counter",
    )
    #: "Pre-flip": older than the fleet-wide latest at completion.
    straddled_requests: int = series(
        "Requests that finished on a pre-flip version.", type="counter"
    )
    version_fallbacks: int = series(
        "Corrupt-chunk fallbacks to an older version.", type="counter"
    )
    publishes: int = series(
        "Checkpoints published to the serving fleet.", type="counter"
    )
    publish_mean_staleness_s: float
    serving_read_bytes: int
    publish_read_bytes: int
    train_write_bytes: int
    cache_evictions: int
    cache_inserts: int
    carried_rows: int
    pinned_rows: int
    duration_s: float

    @derived_series(
        "Row-cache hit fraction over the run.", name="cache_hit_rate"
    )
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


class _GoldenPublisher(ServingPublisher):
    """A serving publisher that snapshots the replica per version.

    The snapshots are the ground truth the torn-lookup verifier
    compares served values against: ``golden[k]`` is exactly the model
    state version ``k`` announced.
    """

    def __init__(self, *args, capture_golden: bool = True, **kwargs):
        super().__init__(*args, **kwargs)
        self.capture_golden = capture_golden
        self.golden: list[dict[int, np.ndarray]] = []

    def _published(self, manifest, event) -> None:
        super()._published(manifest, event)
        if self.capture_golden:
            self.golden.append(
                {
                    table_id: self.replica.table_weight(table_id).copy()
                    for table_id in range(self.replica.config.num_tables)
                }
            )


@dataclass
class _ServerSlot:
    """Driver-side runtime state of one inference server."""

    server: InferenceServer
    queue: list[tuple[float, tuple[tuple[int, int], ...]]] = field(
        default_factory=list
    )
    next_query: int = 0
    free_s: float = 0.0
    flip: StagedHandle | None = None
    lookup: StagedHandle | None = None


class ServingFleet:
    """Drives training, publishing and serving on one simulated link."""

    TRAIN_JOB = "train0"

    def __init__(
        self,
        exp_config: ExperimentConfig,
        serving: ServingConfig,
        backend: Backend | None = None,
    ) -> None:
        self.serving = serving
        self.store_clock = SimClock()
        arbiter = BandwidthArbiter()
        arbiter.register(PUBLISH_STREAM, tier=TIER_SERVING)
        self.store = ObjectStore(
            exp_config.storage,
            self.store_clock,
            backend=(
                backend
                if backend is not None
                else make_backend(
                    exp_config.storage.backend, exp_config.storage
                )
            ),
            arbiter=arbiter,
        )
        self.train_clock = SimClock()
        scoped = ScopedStore(self.store, self.TRAIN_JOB, self.train_clock)
        self.exp: Experiment = build_experiment(
            exp_config,
            job_id=self.TRAIN_JOB,
            overlap_action="skip_new",
            store=scoped,
            clock=self.train_clock,
        )
        # The trainer runs as the single job of a fleet scheduler on
        # the shared store; this driver only merges its events in.
        fleet_config = FleetConfig(
            num_jobs=1,
            intervals_per_job=serving.train_intervals,
            inject_failures=False,
            storage=exp_config.storage,
            failures=exp_config.failures,
        )
        self.training = FleetScheduler(
            fleet_config,
            self.store,
            jobs=[
                enrol_experiment(
                    self._trainer_spec(exp_config),
                    fleet_config,
                    self.exp,
                    self.store,
                )
            ],
            on_event=self._on_training_event,
        )
        self.pub_clock = SimClock()
        # The publisher reads the training job's namespace, but its
        # chain reads are accounted — and prioritised — on the
        # serving-tier ``publish`` stream, not as the job's own traffic.
        self.publisher = _GoldenPublisher(
            ScopedStore(
                self.store,
                self.TRAIN_JOB,
                self.pub_clock,
                stream=PUBLISH_STREAM,
            ),
            self.pub_clock,
            self.exp.model.clone_config_model(),
            self.TRAIN_JOB,
            hot_rows_per_table=serving.hot_rows_per_table,
            capture_golden=serving.verify,
        )
        # Servers read, hash and cache rows on their own; the decode of
        # bytes one of them verified is shared across the plane.
        self.decoded_chunks = DecodedChunkCache()
        self.slots: list[_ServerSlot] = []
        for index in range(serving.num_servers):
            stream = f"serve{index}"
            arbiter.register(stream, tier=TIER_SERVING)
            self.slots.append(
                _ServerSlot(
                    server=InferenceServer(
                        server_id=stream,
                        store=self.store,
                        publisher=self.publisher,
                        cache_rows=serving.cache_rows,
                        stream=stream,
                        lookup_overhead_s=serving.lookup_overhead_s,
                        warm_pins=serving.warm_pins,
                        decoded_chunks=self.decoded_chunks,
                    )
                )
            )
        self._assign_queries()
        self.results: list[LookupResult] = []
        self.torn_lookups = 0
        self.straddled_requests = 0
        self._query_base: float | None = None
        self._request_counter = 0
        self._publish: StagedHandle | None = None
        self._publish_again = False

    # ------------------------------------------------------------------
    # Query workload
    # ------------------------------------------------------------------

    def _assign_queries(self) -> None:
        """Precompute every request's row batch and arrival offset.

        Rows come from the training dataset's own Zipfian samplers (one
        row per table per request), so serving traffic hits the same
        skewed population training modifies. Arrivals are Poisson at
        the configured fleet QPS, round-robin across servers, and
        *offsets*: the absolute times anchor at the moment the whole
        fleet first flips, because before that there is nothing to
        serve.
        """
        rng = np.random.default_rng(self.serving.seed)
        samplers = self.exp.dataset.samplers
        num_tables = len(samplers)
        gaps = rng.exponential(
            1.0 / self.serving.qps, size=self.serving.num_queries
        )
        offsets = np.cumsum(gaps)
        for index in range(self.serving.num_queries):
            rows = tuple(
                (table_id, int(samplers[table_id].sample((1,), rng)[0]))
                for table_id in range(num_tables)
            )
            slot = self.slots[index % len(self.slots)]
            slot.queue.append((float(offsets[index]), rows))

    # ------------------------------------------------------------------
    # Training side (a one-job fleet; see ``self.training``)
    # ------------------------------------------------------------------

    def _trainer_spec(self, config: ExperimentConfig) -> FleetJobSpec:
        """The training experiment described as a prod-tier fleet job."""
        checkpoint = config.checkpoint
        return FleetJobSpec(
            job_id=self.TRAIN_JOB,
            num_tables=config.model.num_tables,
            rows_per_table=max(config.model.rows_per_table),
            interval_batches=checkpoint.interval_batches,
            policy=checkpoint.policy,
            quantizer=checkpoint.quantizer,
            bit_width=self.exp.controller.current_bit_width(),
            weight=1.0,
            start_offset_s=0.0,
            seed=config.model.seed,
            failure_seed=config.failures.seed,
            tier=TIER_PROD,
        )

    def _on_training_event(self, event: FleetEvent) -> None:
        if event.kind == "written":
            self._on_written(event.payload["valid_at_s"])

    def _on_written(self, valid_at_s: float) -> None:
        """A checkpoint landed: start (or queue) a staged publish.

        The poll runs at the moment the manifest became *valid* (its
        write completed on the shared timeline) — the training job's
        own clock lags its async writes, and polling earlier would
        reject the fresh manifest as not-yet-valid. The publisher's
        chain reads run as a staged drive on the ``publish`` stream, so
        lookups interleave with them part by part instead of queueing
        behind a whole chain; servers are notified at the time the
        publish reads actually completed. A checkpoint landing while a
        publish is already in flight queues one re-poll.
        """
        self.pub_clock.advance(
            max(
                0.0,
                max(self.train_clock.now, valid_at_s)
                - self.pub_clock.now,
            ),
            "publish-poll",
        )
        if self._publish is not None:
            self._publish_again = True
            return
        self._start_publish()

    def _start_publish(self) -> None:
        drive = StagedHandle(self.publisher.poll_steps())
        if drive.done:
            self._finish_publish(drive)
        else:
            self._publish = drive

    def _finish_publish(self, drive: StagedHandle) -> None:
        self._publish = None
        events = drive.result or []
        if events:
            notify = max(
                self.pub_clock.now,
                max(e.applied_at_s for e in events),
            )
            for slot in self.slots:
                self._maybe_flip(slot, notify)
        if self._publish_again:
            self._publish_again = False
            self._start_publish()

    # ------------------------------------------------------------------
    # Serving side
    # ------------------------------------------------------------------

    def _maybe_flip(self, slot: _ServerSlot, notify_s: float) -> None:
        latest = self.publisher.latest_version
        if latest is None or slot.flip is not None:
            return
        if slot.server.version_index >= latest.version_index:
            return
        drive = StagedHandle(slot.server.flip_steps(latest, notify_s))
        if drive.done:
            self._finish_flip(slot, drive)
        else:
            slot.flip = drive

    def _finish_flip(
        self, slot: _ServerSlot, drive: StagedHandle
    ) -> None:
        slot.flip = None
        done_s = float(drive.result)
        if self._query_base is None and all(
            s.server.version_index >= 0 for s in self.slots
        ):
            # The whole fleet serves now; anchor the query arrivals.
            self._query_base = done_s
        # A newer version may have published while this flip warmed.
        self._maybe_flip(slot, done_s)

    def _dispatch(self, slot: _ServerSlot, at_s: float) -> None:
        arrival_offset, rows = slot.queue[slot.next_query]
        slot.next_query += 1
        assert self._query_base is not None
        request = LookupRequest(
            request_id=self._request_counter,
            arrival_s=self._query_base + arrival_offset,
            rows=rows,
        )
        self._request_counter += 1
        drive = StagedHandle(
            slot.server.lookup_steps(request, start_s=at_s)
        )
        if drive.done:
            self._finish_lookup(slot, drive)
        else:
            slot.lookup = drive

    def _finish_lookup(
        self, slot: _ServerSlot, drive: StagedHandle
    ) -> None:
        slot.lookup = None
        result: LookupResult = drive.result
        slot.free_s = result.completed_s
        self.results.append(result)
        latest = self.publisher.latest_version
        if (
            latest is not None
            and result.version_index < latest.version_index
        ):
            self.straddled_requests += 1
        if self.serving.verify:
            golden = self.publisher.golden[result.version_index]
            for (table_id, row), value in result.values.items():
                if not np.array_equal(value, golden[table_id][row]):
                    self.torn_lookups += 1
                    break

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------

    def _next_event(self):
        """The globally earliest pending ``(time_s, kind, payload)``.

        Link operations (the trainer's write parts, publish/flip/lookup
        read parts) compete at ``max(ready, link free)`` under the
        fleet's link rule — serving tier outranks prod, SFQ within the
        tier, flip warm-reads are background prefetch. Non-link events
        (training compute, request dispatch) run at their own clocks
        and lose ties to link operations, so a ready transfer claims
        its slot first.
        """
        link_free = self.store.timeline.free_at
        link_ops: list[tuple[float, str, bool, tuple]] = []
        other: list[tuple[float, str, object]] = []
        training = self.training.next_event()
        if training is not None and training[1] == "write":
            link_ops.append(
                (training[0], self.TRAIN_JOB, False, ("training", training))
            )
        elif training is not None:
            other.append((training[0], "training", training))
        # Within a server's stream, its flip is listed before its lookup.
        reads = [("publish", PUBLISH_STREAM, None, self._publish)]
        for slot in self.slots:
            reads.append(("flip", slot.server.stream, slot, slot.flip))
            reads.append(("lookup", slot.server.stream, slot, slot.lookup))
        for kind, stream, slot, drive in reads:
            if drive is not None and drive.next_step is not None:
                link_ops.append(
                    (
                        max(drive.next_step.ready_s, link_free),
                        stream,
                        kind == "flip",
                        (kind, (slot, drive)),
                    )
                )
        for slot in self.slots:
            if (
                self._query_base is not None
                and slot.lookup is None
                and slot.next_query < len(slot.queue)
            ):
                arrival = (
                    self._query_base + slot.queue[slot.next_query][0]
                )
                other.append(
                    (max(arrival, slot.free_s), "dispatch", slot)
                )
        best_link = min((op[0] for op in link_ops), default=None)
        best_other = min(other, key=lambda e: e[0], default=None)
        if best_link is not None and (
            best_other is None or best_link <= best_other[0]
        ):
            _, (kind, payload) = pick_link_op(
                link_ops, self.store.arbiter
            )
            return best_link, kind, payload
        return best_other

    def run(self) -> ServingReport:
        started = self.train_clock.now
        for _ in range(MAX_EVENTS):
            event = self._next_event()
            if event is None:
                break
            _, kind, payload = event
            if kind == "training":
                self.training.step(payload)
            elif kind == "dispatch":
                self._dispatch(payload, event[0])
            else:
                slot, drive = payload
                drive.advance()
                if drive.done:
                    if kind == "publish":
                        self._finish_publish(drive)
                    elif kind == "flip":
                        self._finish_flip(slot, drive)
                    else:
                        self._finish_lookup(slot, drive)
        else:
            raise ServingError(
                f"serving co-simulation did not converge within "
                f"{MAX_EVENTS} events"
            )
        return self._report(started)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def _report(self, started: float) -> ServingReport:
        latencies = np.asarray(
            [r.latency_s for r in self.results], dtype=np.float64
        )
        lags = np.asarray(
            [
                r.completed_s
                - self.publisher.versions[r.version_index].created_at_s
                for r in self.results
            ],
            dtype=np.float64,
        )
        arbiter = self.store.arbiter
        assert arbiter is not None
        serving_read = sum(
            arbiter.stream(slot.server.stream).served_get_bytes
            for slot in self.slots
        )
        servers = [slot.server for slot in self.slots]
        end = max(
            [self.train_clock.now]
            + [r.completed_s for r in self.results]
        )
        return ServingReport(
            num_servers=len(servers),
            cache_rows=self.serving.cache_rows,
            requests=len(self.results),
            rows_looked_up=sum(s.rows_served for s in servers),
            cache_hits=sum(r.hits for r in self.results),
            cache_misses=sum(r.misses for r in self.results),
            lookup_p50_s=(
                float(np.percentile(latencies, 50)) if latencies.size else 0.0
            ),
            lookup_p99_s=(
                float(np.percentile(latencies, 99)) if latencies.size else 0.0
            ),
            lookup_mean_s=(
                float(latencies.mean()) if latencies.size else 0.0
            ),
            version_flips=sum(s.flips for s in servers),
            flip_stall_total_s=sum(s.flip_stall_total_s for s in servers),
            flip_stall_max_s=max(
                (s.flip_stall_max_s for s in servers), default=0.0
            ),
            version_lag_mean_s=float(lags.mean()) if lags.size else 0.0,
            version_lag_max_s=float(lags.max()) if lags.size else 0.0,
            torn_lookups=self.torn_lookups,
            straddled_requests=self.straddled_requests,
            version_fallbacks=sum(s.version_fallbacks for s in servers),
            publishes=self.publisher.stats.publishes,
            publish_mean_staleness_s=self.publisher.stats.mean_staleness_s,
            serving_read_bytes=serving_read,
            publish_read_bytes=arbiter.stream(
                PUBLISH_STREAM
            ).served_get_bytes,
            train_write_bytes=arbiter.stream(
                self.TRAIN_JOB
            ).served_put_bytes,
            cache_evictions=sum(
                s.cache_stats.evictions for s in servers
            ),
            cache_inserts=sum(s.cache_stats.inserts for s in servers),
            carried_rows=sum(
                s.cache_stats.carried_rows for s in servers
            ),
            pinned_rows=sum(
                s.current.cache.pinned_rows
                for s in servers
                if s.current is not None
            ),
            duration_s=end - started,
        )


def run_serving(
    exp_config: ExperimentConfig,
    serving: ServingConfig,
    backend: Backend | None = None,
) -> ServingReport:
    """Build and run one serving-plane co-simulation."""
    return ServingFleet(exp_config, serving, backend=backend).run()


def format_serving_report(report: ServingReport) -> str:
    """Human-readable summary (the CLI artifact)."""
    lines = [
        "serving plane co-simulation",
        f"  servers                {report.num_servers}",
        f"  cache rows/server      {report.cache_rows}",
        f"  requests served        {report.requests}",
        f"  rows looked up         {report.rows_looked_up}",
        f"  cache hit rate         {report.hit_rate:.3f} "
        f"({report.cache_hits} hits / {report.cache_misses} misses)",
        f"  lookup p50             {report.lookup_p50_s * 1e3:.3f} ms",
        f"  lookup p99             {report.lookup_p99_s * 1e3:.3f} ms",
        f"  lookup mean            {report.lookup_mean_s * 1e3:.3f} ms",
        f"  version flips          {report.version_flips}",
        f"  flip stall total/max   {report.flip_stall_total_s:.3f} s / "
        f"{report.flip_stall_max_s:.3f} s",
        f"  version lag mean/max   {report.version_lag_mean_s:.3f} s / "
        f"{report.version_lag_max_s:.3f} s",
        f"  straddled requests     {report.straddled_requests}",
        f"  torn lookups           {report.torn_lookups}",
        f"  version fallbacks      {report.version_fallbacks}",
        f"  publishes              {report.publishes} "
        f"(mean staleness {report.publish_mean_staleness_s:.3f} s)",
        f"  serving read bytes     {report.serving_read_bytes}",
        f"  publish read bytes     {report.publish_read_bytes}",
        f"  train write bytes      {report.train_write_bytes}",
        f"  cache inserts/evicts   {report.cache_inserts} / "
        f"{report.cache_evictions}",
        f"  carried rows (flips)   {report.carried_rows}",
        f"  pinned rows (now)      {report.pinned_rows}",
        f"  duration               {report.duration_s:.3f} s",
    ]
    return "\n".join(lines) + "\n"
