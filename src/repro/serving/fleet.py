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
checkpoint triggers and staged writes, and its loop is the only one.
The serving side runs on it as guests: publish chain reads, flip
warm-reads and lookup miss GETs are staged reads
(:meth:`~repro.fleet.scheduler.FleetScheduler.add_read`) that compete
for the link part by part with the checkpoint's PUT parts, and request
dispatch is a timer
(:meth:`~repro.fleet.scheduler.FleetScheduler.add_timer`). Every staged
operation announces itself before submitting and the globally earliest
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

from collections import deque
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..config import ExperimentConfig, check_fields, setting
from ..distributed.clock import SimClock
from ..fleet.experiment import one_job_fleet
from ..fleet.namespace import ScopedStore
from ..fleet.scheduler import FleetEvent
from ..reporting import derived_series, series
from ..storage.bandwidth import TIER_SERVING
from ..storage.engine import StagedHandle, split_parts
from .chunks import DecodedChunkCache
from .publisher import ServingPublisher
from .server import InferenceServer, LookupRequest, LookupResult

#: Stream id of the publisher's chain reads on the shared link.
PUBLISH_STREAM = "publish"


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the serving-plane co-simulation."""

    num_servers: int = setting(2, "inference servers", flag="--servers", ge=1)
    #: Per-server row-cache capacity (pinned hot rows + LRU ring).
    cache_rows: int = setting(
        256, "per-server row-cache capacity (pinned hot rows + LRU)", ge=1
    )
    qps: float = setting(200.0, "fleet-wide lookup arrival rate", gt=0)
    num_queries: int = setting(400, "lookup requests", flag="--queries", ge=0)
    hot_rows_per_table: int = setting(
        64,
        "hot rows the publisher announces (and servers pin) per table",
        flag="--pin-rows",
        ge=0,
    )
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
    #: Slot index: the dispatch timer's key (ties go lowest first).
    index: int
    #: Requests not yet dispatched: ``(arrival offset, rows)``.
    queue: deque[tuple[float, tuple[tuple[int, int], ...]]] = field(
        default_factory=deque
    )
    flip: StagedHandle | None = None


class ServingFleet:
    """Drives training, publishing and serving on one simulated link."""

    TRAIN_JOB = "train0"

    def __init__(
        self, exp_config: ExperimentConfig, serving: ServingConfig
    ) -> None:
        self.serving = serving
        # The trainer runs as the single job of a fleet scheduler on
        # the shared store; the serving side runs on its loop as guests.
        self.training, self.exp = one_job_fleet(
            exp_config,
            serving.train_intervals,
            job_id=self.TRAIN_JOB,
            on_event=self._on_training_event,
        )
        self.store = self.training.store
        arbiter = self.store.arbiter
        arbiter.register(PUBLISH_STREAM, tier=TIER_SERVING)
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
                        warm_pins=serving.warm_pins,
                        decoded_chunks=self.decoded_chunks,
                    ),
                    index=index,
                )
            )
        self.training.max_events += self._event_budget(exp_config)
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

    def _event_budget(self, config: ExperimentConfig) -> int:
        """The serving guests' share of the run's convergence bound.

        A query is one dispatch plus, per table, at most one chunk
        read; each of the ``train_intervals`` versions is read by the
        publisher and warm-read by every server, at most a whole
        checkpoint (its chunks, dense state and manifest) each. Every
        chunk read is at most ``parts`` ranged GETs of its fp32
        weights and optimizer state. Doubled for the requests a
        corrupt chunk replays.
        """
        model, serving = config.model, self.serving
        rows = config.checkpoint.chunk_rows
        window = config.storage.backend.range_get_bytes
        parts = len(split_parts(8 * model.embedding_dim * rows, window))
        chunks = model.total_embedding_rows // rows + model.num_tables + 2
        versions = serving.train_intervals * (1 + serving.num_servers)
        reads = serving.num_queries * model.num_tables + versions * chunks
        return 2 * (serving.num_queries + reads * parts)

    # ------------------------------------------------------------------
    # Training side (a one-job fleet; see ``self.training``)
    # ------------------------------------------------------------------

    def _on_training_event(self, event: FleetEvent) -> None:
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
        if event.kind != "written":
            return
        poll_s = max(self.exp.clock.now, event.payload["valid_at_s"])
        self.pub_clock.advance(
            max(0.0, poll_s - self.pub_clock.now), "publish-poll"
        )
        if self._publish is not None:
            self._publish_again = True
            return
        self._start_publish()

    def _start_publish(self) -> None:
        self._publish = StagedHandle(self.publisher.poll_steps())
        self.training.add_read(
            PUBLISH_STREAM,
            self._publish,
            PUBLISH_STREAM,
            self._finish_publish,
        )

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
        slot.flip = StagedHandle(slot.server.flip_steps(latest, notify_s))
        self.training.add_read(
            f"{slot.server.stream}/flip",
            slot.flip,
            slot.server.stream,
            partial(self._finish_flip, slot),
            background=True,
        )

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
            for each in self.slots:
                self._arm_dispatch(each)
        # A newer version may have published while this flip warmed.
        self._maybe_flip(slot, done_s)

    def _arm_dispatch(self, slot: _ServerSlot, free_s: float = 0.0) -> None:
        """Time the slot's next request: its arrival, once it is free."""
        if slot.queue:
            arrival = self._query_base + slot.queue[0][0]
            self.training.add_timer(
                slot.index,
                max(arrival, free_s),
                partial(self._dispatch, slot),
            )

    def _dispatch(self, slot: _ServerSlot, at_s: float) -> None:
        arrival_offset, rows = slot.queue.popleft()
        request = LookupRequest(
            request_id=self._request_counter,
            arrival_s=self._query_base + arrival_offset,
            rows=rows,
        )
        self._request_counter += 1
        self.training.add_read(
            f"{slot.server.stream}/lookup",
            StagedHandle(slot.server.lookup_steps(request, start_s=at_s)),
            slot.server.stream,
            partial(self._finish_lookup, slot),
        )

    def _finish_lookup(
        self, slot: _ServerSlot, drive: StagedHandle
    ) -> None:
        result: LookupResult = drive.result
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
        self._arm_dispatch(slot, result.completed_s)

    def run(self) -> ServingReport:
        started = self.exp.clock.now
        self.training.run()
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
            [self.exp.clock.now]
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
    exp_config: ExperimentConfig, serving: ServingConfig
) -> ServingReport:
    """Build and run one serving-plane co-simulation."""
    return ServingFleet(exp_config, serving).run()


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
