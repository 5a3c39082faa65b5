"""Incremental checkpointing policies (paper section 5.1).

Four policies govern what each checkpoint stores and what a restore
must read:

* **full** — every checkpoint stores the whole model. The paper's
  baseline (and effectively what CheckFreq-style systems do).
* **one_shot** — one full baseline, then every increment stores all
  rows modified *since the baseline*. Restore = baseline + latest
  increment. Increment sizes grow without bound.
* **consecutive** — each increment stores only rows modified during the
  *last interval*. Smallest writes (~constant size), but restore must
  replay the entire chain and storage accumulates every increment.
* **intermittent** — one_shot plus a predictor that refreshes the full
  baseline when continuing incrementally would cost more
  (:mod:`repro.core.predictor`). Check-N-Run's default.

A policy also owns the tracker-reset rule (one_shot tracks since
baseline; consecutive tracks since the last checkpoint) and the
restore-chain/protection logic the retention machinery relies on.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from ..errors import CheckpointError, RestoreChainBrokenError
from .manifest import KIND_FULL, KIND_INCREMENTAL, CheckpointManifest
from .predictor import HistoryPredictor


@dataclass(frozen=True)
class PolicyState:
    """Inputs to the full-vs-incremental decision."""

    interval_index: int
    #: Sizes of increments since the last full checkpoint, as fractions
    #: of that full checkpoint's logical size.
    incremental_sizes: tuple[float, ...]


class CheckpointPolicy(ABC):
    """Strategy object: decide kinds, reset rules, restore chains."""

    name: str = "abstract"

    @abstractmethod
    def decide(self, state: PolicyState) -> str:
        """Return KIND_FULL or KIND_INCREMENTAL for the next checkpoint."""

    @abstractmethod
    def reset_tracker_after(self, kind: str) -> bool:
        """Whether the modified-row trackers clear after a ``kind`` ckpt."""

    def restore_chain(
        self,
        target: CheckpointManifest,
        manifests: dict[str, CheckpointManifest],
    ) -> list[CheckpointManifest]:
        """Ordered list of checkpoints to load (base first) for ``target``.

        The default walks ``base_id`` links back to a full checkpoint,
        which is correct for every policy here: full checkpoints are
        single-element chains; one_shot/intermittent increments point
        directly at their baseline; consecutive increments point at the
        previous checkpoint, producing the whole chain.
        """
        chain: list[CheckpointManifest] = [target]
        seen = {target.checkpoint_id}
        current = target
        while current.kind == KIND_INCREMENTAL:
            base_id = current.base_id
            if base_id is None or base_id not in manifests:
                raise RestoreChainBrokenError(
                    f"checkpoint {current.checkpoint_id} references "
                    f"missing base {base_id!r}"
                )
            if base_id in seen:
                raise RestoreChainBrokenError(
                    f"cycle in restore chain at {base_id!r}"
                )
            current = manifests[base_id]
            seen.add(current.checkpoint_id)
            chain.append(current)
        chain.reverse()
        return chain

    def protected_ids(
        self,
        keep: list[CheckpointManifest],
        manifests: dict[str, CheckpointManifest],
    ) -> set[str]:
        """Checkpoint ids that must survive for ``keep`` to be restorable."""
        protected: set[str] = set()
        for manifest in keep:
            for link in self.restore_chain(manifest, manifests):
                protected.add(link.checkpoint_id)
        return protected


class FullPolicy(CheckpointPolicy):
    """Every checkpoint is a full model dump — the paper's baseline."""

    name = "full"

    def decide(self, state: PolicyState) -> str:
        return KIND_FULL

    def reset_tracker_after(self, kind: str) -> bool:
        return True


class OneShotPolicy(CheckpointPolicy):
    """Single baseline; increments accumulate rows modified since it."""

    name = "one_shot"

    def decide(self, state: PolicyState) -> str:
        return KIND_FULL if state.interval_index == 0 else KIND_INCREMENTAL

    def reset_tracker_after(self, kind: str) -> bool:
        # The tracker keeps accumulating across increments; only a new
        # baseline (the very first checkpoint) clears it.
        return kind == KIND_FULL


class ConsecutivePolicy(CheckpointPolicy):
    """Increments store only the last interval's modified rows."""

    name = "consecutive"

    def decide(self, state: PolicyState) -> str:
        return KIND_FULL if state.interval_index == 0 else KIND_INCREMENTAL

    def reset_tracker_after(self, kind: str) -> bool:
        return True  # every checkpoint starts a fresh interval view


class IntermittentPolicy(CheckpointPolicy):
    """One-shot behaviour with predictor-driven baseline refreshes.

    Check-N-Run's default (section 6.3.1): the history predictor
    triggers a new full checkpoint when the accumulated increment sizes
    make a refresh cheaper in expectation.
    """

    name = "intermittent"

    def __init__(self) -> None:
        self.predictor = HistoryPredictor()

    def decide(self, state: PolicyState) -> str:
        if state.interval_index == 0:
            return KIND_FULL
        if self.predictor.should_take_full(
            list(state.incremental_sizes)
        ):
            return KIND_FULL
        return KIND_INCREMENTAL

    def reset_tracker_after(self, kind: str) -> bool:
        return kind == KIND_FULL


def make_policy(name: str) -> CheckpointPolicy:
    """Policy factory matching :data:`repro.config.POLICY_NAMES`."""
    if name == "full":
        return FullPolicy()
    if name == "one_shot":
        return OneShotPolicy()
    if name == "consecutive":
        return ConsecutivePolicy()
    if name == "intermittent":
        return IntermittentPolicy()
    raise CheckpointError(
        f"unknown policy {name!r}; valid: full, one_shot, consecutive, "
        "intermittent"
    )
