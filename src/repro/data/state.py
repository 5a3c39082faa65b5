"""Reader and trainer state records carried inside checkpoints.

Section 4.1: a checkpoint must include the reader state ("which parts
have been read") so a resumed run continues on the same dataset without
double-training or skipping samples. These records serialize to plain
dicts for embedding in the checkpoint manifest.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..errors import ReaderError


@dataclass(frozen=True)
class ReaderState:
    """Where the reader tier stands in the dataset.

    ``next_batch_index`` is the first batch *not yet delivered* to the
    trainer; ``in_flight`` counts batches read from the dataset but not
    consumed — the trainer-reader gap the coordination protocol drives
    to zero before state collection.
    """

    next_batch_index: int
    in_flight: int
    batches_delivered: int

    def __post_init__(self) -> None:
        if self.next_batch_index < 0:
            raise ReaderError("next_batch_index must be >= 0")
        if self.in_flight < 0:
            raise ReaderError("in_flight must be >= 0")
        if self.batches_delivered < 0:
            raise ReaderError("batches_delivered must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ReaderState":
        return cls(
            next_batch_index=int(data["next_batch_index"]),
            in_flight=int(data["in_flight"]),
            batches_delivered=int(data["batches_delivered"]),
        )


@dataclass(frozen=True)
class TrainerProgress:
    """Trainer-side progress metadata stored alongside the model state."""

    batches_trained: int
    samples_trained: int
    sim_time_s: float

    def to_dict(self) -> dict:
        return asdict(self)
