"""Which public functions the traced pass wraps, layer by layer.

Every hook names a *public* function of one module under ``src/repro``;
the span name is the layer-qualified name the per-layer metrics in
:mod:`metrics` are derived from. Generators (``write_checkpoint_steps``,
``restore_steps``, ``lookup_steps`` ...) are timed per resumption.
"""

from __future__ import annotations

from tracer import Hook


def _final_receipt(bytes_counter: str | None = None):
    """Counters off the final OpReceipt of a staged PUT/GET."""

    def measure(args, kwargs, receipt) -> dict:
        if receipt is None:
            return {}
        counts = {"engine.retries": receipt.retries}
        if bytes_counter is not None:
            counts[bytes_counter] = receipt.logical_bytes
        return counts

    return measure


def _put_bytes(args, kwargs, result) -> dict:
    data = kwargs["data"] if "data" in kwargs else args[2]
    return {"store.put_bytes": len(data)}


def _deferral(args, kwargs, decision) -> dict:
    return {} if decision.admitted else {"engine.admission_deferrals": 1}


def _restore_report(args, kwargs, report) -> dict:
    return {
        "restore.count": 1,
        "restore.rows": report.rows_restored,
        "restore.read_bytes": report.bytes_read,
        "restore.fallbacks": report.fallback_depth,
    }


def _cache_lookup(args, kwargs, value) -> dict:
    return {"rowcache.misses" if value is None else "rowcache.hits": 1}


HOOKS: list[Hook] = [
    # distributed.trainer / model / data
    Hook(
        "trainer.step",
        "repro.distributed.trainer:SimTrainer.train_one_batch",
    ),
    Hook("model.train_step", "repro.model.dlrm:DLRM.train_step"),
    Hook("data.next_batch", "repro.data.reader:ReaderMaster.next_batch"),
    # core.tracker
    Hook("tracker.step_hook", "repro.core.tracker:TrackerSet.step_hook"),
    Hook(
        "tracker.mark",
        "repro.core.tracker:ModifiedRowTracker.mark_table_rows",
        kind="count",
        measure=lambda a, k, newly: {"tracker.rows_marked": newly},
    ),
    # core.snapshot
    Hook(
        "snapshot.take",
        "repro.core.snapshot:SnapshotManager.take_snapshot",
        measure=lambda a, k, snap: {"snapshot.bytes": snap.total_bytes},
    ),
    # quant (every registered quantizer overrides the abstract pair)
    Hook(
        "quant.quantize",
        "repro.quant.base:Quantizer.quantize",
        measure=lambda a, k, qt: {"quant.quantize_bytes": a[1].nbytes},
        subclasses=True,
    ),
    Hook(
        "quant.dequantize",
        "repro.quant.base:Quantizer.dequantize",
        subclasses=True,
    ),
    # storage.engine worker pool
    Hook(
        "pool.task",
        "repro.storage.engine:TransferEngine.submit_task",
        kind="submit",
    ),
    Hook("pool.wait", "repro.storage.engine:PoolTask.result"),
    # serialize.codec / serialize.format
    Hook(
        "codec.encode",
        "repro.serialize.codec:encode_payload",
        measure=lambda a, k, blob: {"codec.encode_bytes": len(blob)},
    ),
    Hook(
        "codec.encode",
        "repro.serialize.codec:encode_array",
        measure=lambda a, k, blob: {"codec.encode_bytes": len(blob)},
    ),
    Hook("codec.decode", "repro.serialize.codec:decode_payload"),
    Hook("format.encode_frames", "repro.serialize.format:encode_frames"),
    Hook("format.decode_frames", "repro.serialize.format:decode_frames"),
    # core.manifest / core.integrity
    Hook("manifest.to_json", "repro.core.manifest:CheckpointManifest.to_json"),
    Hook(
        "manifest.from_json",
        "repro.core.manifest:CheckpointManifest.from_json",
    ),
    Hook(
        "integrity.sha256",
        "repro.core.integrity:sha256_hex",
        measure=lambda a, k, digest: {"integrity.sha256_bytes": len(a[0])},
    ),
    # core.writer / core.controller
    Hook(
        "writer.steps",
        "repro.core.writer:CheckpointWriter.write_checkpoint_steps",
        kind="generator",
    ),
    Hook(
        "controller.begin_checkpoint",
        "repro.core.controller:CheckNRun.begin_checkpoint",
    ),
    Hook(
        "controller.finish_checkpoint",
        "repro.core.controller:CheckNRun.finish_checkpoint",
    ),
    Hook(
        "controller.begin_restore",
        "repro.core.controller:CheckNRun.begin_restore",
    ),
    Hook(
        "controller.finish_restore",
        "repro.core.controller:CheckNRun.finish_restore",
        measure=_restore_report,
    ),
    # storage.engine parts and admission
    Hook(
        "engine.put_submit",
        "repro.storage.engine:StagedPut.submit_next",
        measure=_final_receipt(),
    ),
    Hook(
        "engine.get_submit",
        "repro.storage.engine:StagedGet.submit_next",
        measure=_final_receipt("store.get_bytes"),
    ),
    Hook(
        "engine.admission_decide",
        "repro.storage.engine:AdmissionController.decide",
        measure=_deferral,
    ),
    Hook(
        "engine.admission_decide",
        "repro.storage.engine:AdmissionController.decide_get",
        measure=_deferral,
    ),
    # storage.bandwidth
    Hook("arbiter.pick", "repro.storage.bandwidth:BandwidthArbiter.pick"),
    Hook(
        "arbiter.preempt",
        "repro.storage.bandwidth:BandwidthArbiter.record_preemption",
    ),
    # storage.object_store
    Hook(
        "store.put",
        "repro.storage.object_store:ObjectStore.put",
        measure=_put_bytes,
    ),
    Hook(
        "store.put",
        "repro.storage.object_store:ObjectStore.stage_put",
        measure=_put_bytes,
    ),
    Hook("store.get", "repro.storage.object_store:ObjectStore.get"),
    Hook("store.get", "repro.storage.object_store:ObjectStore.stage_get"),
    Hook("store.list", "repro.storage.object_store:ObjectStore.list_keys"),
    Hook("store.delete", "repro.storage.object_store:ObjectStore.delete"),
    Hook(
        "store.delete",
        "repro.storage.object_store:ObjectStore.delete_prefix",
    ),
    # fleet.scheduler / fleet.eventqueue
    Hook(
        "scheduler.run",
        "repro.fleet.scheduler:FleetScheduler.run",
        measure=lambda a, k, r: {"scheduler.events": len(a[0].events)},
    ),
    *[
        Hook("eventqueue.ops", f"repro.fleet.eventqueue:LaneHeap.{method}")
        for method in ("key", "set", "remove", "best", "tied")
    ],
    *[
        Hook(
            "eventqueue.ops",
            f"repro.fleet.eventqueue:FleetEventQueue.{method}",
        )
        for method in ("clear_write_lanes", "best_write", "tied_writes")
    ],
    # core.restore
    Hook("restore.plan", "repro.core.restore:CheckpointRestorer.plan_resume"),
    Hook(
        "restore.steps",
        "repro.core.restore:CheckpointRestorer.restore_steps",
        kind="generator",
    ),
    Hook(
        "restore.steps",
        "repro.core.restore:CheckpointRestorer.restore_with_fallback_steps",
        kind="generator",
    ),
    # serving
    Hook("servingfleet.run", "repro.serving.fleet:ServingFleet.run"),
    Hook(
        "server.lookup",
        "repro.serving.server:InferenceServer.lookup_steps",
        kind="generator",
    ),
    Hook(
        "server.flip",
        "repro.serving.server:InferenceServer.flip_steps",
        kind="generator",
    ),
    Hook(
        "rowcache.lookup",
        "repro.serving.rowcache:RowCache.lookup",
        measure=_cache_lookup,
    ),
    Hook("rowcache.lookup", "repro.serving.rowcache:RowCache.admit"),
    Hook("rowcache.lookup", "repro.serving.rowcache:RowCache.pin"),
    Hook(
        "publisher.poll",
        "repro.core.publisher:OnlinePublisher.poll_steps",
        kind="generator",
        measure=lambda a, k, events: {
            "publisher.publishes": len(events or ())
        },
    ),
]
