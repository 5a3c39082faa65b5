"""Checkpoint retention: delete old checkpoints without breaking chains.

"At that stage, an older checkpoint may be deleted by the controller
(based on the system configuration). Multiple checkpoints can be stored
depending on the needs and use cases." (paper section 4.4)

Retention keeps the last ``keep_last`` checkpoints *and everything
their restore chains reference*: deleting a one-shot baseline while an
increment that needs it is retained would render that increment
useless, so baselines are protected for as long as any kept increment
points at them.

The *storm-aware* mode (``max_chain_length``) additionally biases
toward keeping one **full** checkpoint hot per job: when one more
increment would push the restore chain past the bound, the manager
asks the controller to refresh the baseline (take a full) instead of
extending the chain. A correlated restore storm re-reads every
affected job's whole chain through the shared link, so bounding chain
depth trades a little extra write traffic for a large cut in storm
read traffic — and lets the superseded long chain be scrubbed once the
fresh full lands. The fleet enables it via
``FleetConfig.retention_mode="storm_aware"`` when a
``storm_domain`` is armed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CheckpointError
from ..storage.object_store import ObjectStore
from .manifest import CheckpointManifest, checkpoint_prefix
from .policies import CheckpointPolicy


@dataclass(frozen=True)
class RetentionReport:
    """What one retention pass deleted."""

    deleted_ids: tuple[str, ...]
    deleted_objects: int
    freed_logical_bytes: int


class RetentionManager:
    """Deletes unprotected checkpoints beyond the retention window.

    ``max_chain_length`` arms the storm-aware mode: a bound on how many
    links the newest checkpoint's restore chain may carry before the
    manager requests a baseline refresh (None = unbounded, the
    chain-depth behaviour every policy had before storms were a
    concern).
    """

    def __init__(
        self,
        store: ObjectStore,
        keep_last: int,
        max_chain_length: int | None = None,
    ) -> None:
        if keep_last < 1:
            raise CheckpointError("keep_last must be >= 1")
        if max_chain_length is not None and max_chain_length < 1:
            raise CheckpointError("max_chain_length must be >= 1")
        self.store = store
        self.keep_last = keep_last
        self.max_chain_length = max_chain_length

    def wants_baseline_refresh(
        self,
        manifests: dict[str, CheckpointManifest],
        policy: CheckpointPolicy,
        base_id: str | None,
    ) -> bool:
        """Whether the next checkpoint should be forced full.

        ``base_id`` is the checkpoint the *next increment* would chain
        on (the controller's prospective base). True when storm-aware
        mode is on and that increment's restore chain — its base's
        chain plus itself — would exceed ``max_chain_length``, so the
        controller refreshes the baseline instead of extending. The
        test is prospective on purpose: a one-shot/intermittent
        increment always chains directly on the full baseline (chain
        length 2 regardless of history), so only consecutive-style
        policies, whose chains actually grow, ever trigger a refresh
        at bounds >= 2. The refreshed full supersedes the old chain,
        which the next :meth:`enforce` pass scrubs once ``keep_last``
        newer checkpoints cover it.
        """
        if self.max_chain_length is None:
            return False
        if base_id is None or base_id not in manifests:
            return False
        chain = policy.restore_chain(manifests[base_id], manifests)
        return len(chain) + 1 > self.max_chain_length

    def enforce(
        self,
        manifests: dict[str, CheckpointManifest],
        policy: CheckpointPolicy,
        job_id: str,
        now_s: float | None = None,
    ) -> RetentionReport:
        """Delete checkpoints not needed by the newest ``keep_last``.

        Only checkpoints already *valid* at ``now_s`` count toward the
        retention window, and in-flight (not-yet-valid) checkpoints are
        always protected — deleting the old checkpoint before the new
        one's last byte lands would leave a window with nothing to
        restore from (the paper deletes "at that stage", i.e. after the
        controller declares the new checkpoint valid, section 4.4).
        Quarantined checkpoints never occupy a keep slot — a scan
        already proved them unrestorable, so retaining them would
        shrink the window of checkpoints that can actually restore.
        They remain deletable like any other superseded checkpoint
        (still protected if a kept checkpoint's chain references them,
        via ``protected_ids``).

        Mutates ``manifests`` (removes deleted entries) and the store.
        """
        ordered = sorted(
            manifests.values(),
            key=lambda m: (m.interval_index, m.valid_at_s),
        )
        if now_s is None:
            valid = [m for m in ordered if not m.quarantined]
            in_flight: list[CheckpointManifest] = []
        else:
            valid = [
                m
                for m in ordered
                if m.valid_at_s <= now_s and not m.quarantined
            ]
            in_flight = [m for m in ordered if m.valid_at_s > now_s]
        keep = valid[-self.keep_last :] + in_flight
        protected = policy.protected_ids(keep, manifests)
        deletable = [
            m for m in ordered if m.checkpoint_id not in protected
        ]
        deleted_ids: list[str] = []
        deleted_objects = 0
        freed = 0
        for manifest in deletable:
            # One batch prefix delete per checkpoint: a single LIST
            # plus N DELETE requests under the store's cost model,
            # rather than N client-side list+delete round trips.
            receipt = self.store.delete_prefix(
                checkpoint_prefix(job_id, manifest.checkpoint_id)
            )
            freed += receipt.freed_logical_bytes
            deleted_objects += receipt.num_objects
            del manifests[manifest.checkpoint_id]
            deleted_ids.append(manifest.checkpoint_id)
        return RetentionReport(
            deleted_ids=tuple(deleted_ids),
            deleted_objects=deleted_objects,
            freed_logical_bytes=freed,
        )
