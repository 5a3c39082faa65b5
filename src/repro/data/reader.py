"""The simulated reader tier: master, workers, in-flight queues.

The paper's training pipeline (Fig 2) separates *readers* — hundreds of
nodes whose only job is saturating trainers with batches — from the
trainer cluster. Readers prefetch ahead of the trainer, so at any moment
some batches are "in flight": read from the dataset but not yet trained.

That gap is the checkpointing hazard of section 4.1: if a checkpoint
records the reader's own position, the in-flight batches are silently
skipped on resume; if it records the trainer's position without stopping
the readers, batches can be double-read. Check-N-Run's controller closes
the gap by telling the reader master *exactly how many batches to read*
per checkpoint interval (:meth:`ReaderMaster.begin_interval`), so that
when the interval ends nothing is in flight.

Both the coordinated and the uncoordinated behaviour are implemented so
the ablation bench (a03) can demonstrate the bug the protocol prevents.
"""

from __future__ import annotations

from collections import deque

from ..config import ReaderConfig
from ..errors import ReaderError, ReaderQuotaExceededError
from .batch import Batch
from .state import ReaderState
from .synthetic import SyntheticClickDataset


class ReaderWorker:
    """One reader node: serves the batch indices congruent to its id.

    Production readers shard the dataset; round-robin index striping is
    the simplest faithful analogue that still exercises a many-worker
    merge in the master.
    """

    def __init__(
        self,
        dataset: SyntheticClickDataset,
        worker_id: int,
        num_workers: int,
    ) -> None:
        if not 0 <= worker_id < num_workers:
            raise ReaderError(
                f"worker_id {worker_id} out of range for {num_workers}"
            )
        self._dataset = dataset
        self.worker_id = worker_id
        self.num_workers = num_workers

    def owns(self, batch_index: int) -> bool:
        return batch_index % self.num_workers == self.worker_id

    def read(self, batch_index: int) -> Batch:
        if not self.owns(batch_index):
            raise ReaderError(
                f"worker {self.worker_id} asked for foreign batch "
                f"{batch_index}"
            )
        return self._dataset.batch(batch_index)


class ReaderMaster:
    """Coordinates workers, owns the in-flight queue, tracks state.

    In coordinated mode (the Check-N-Run protocol) the master only reads
    while it holds quota; ``collect_state`` then observes an empty
    in-flight queue and the reader/trainer positions agree. In
    uncoordinated mode the master free-runs its prefetch and
    ``collect_state`` records the *reader's* position — ahead of the
    trainer's — reproducing the state-gap bug.
    """

    def __init__(
        self, dataset: SyntheticClickDataset, config: ReaderConfig
    ) -> None:
        self._dataset = dataset
        self.config = config
        self.workers = [
            ReaderWorker(dataset, i, config.num_workers)
            for i in range(config.num_workers)
        ]
        self._queue: deque[Batch] = deque()
        self._next_read_index = 0
        self._delivered = 0
        self._quota: int | None = 0 if config.coordinated else None
        self._paused = False

    # ------------------------------------------------------------------
    # Coordination protocol (Check-N-Run controller -> reader master)
    # ------------------------------------------------------------------

    def begin_interval(self, num_batches: int) -> None:
        """Grant quota to read exactly ``num_batches`` more batches."""
        if num_batches < 1:
            raise ReaderError("interval must contain at least one batch")
        if not self.config.coordinated:
            raise ReaderError(
                "begin_interval is only valid in coordinated mode"
            )
        self._quota = (self._quota or 0) + num_batches
        self._paused = False

    def pause(self) -> None:
        """Stop reading (controller stalls readers during state collection)."""
        self._paused = True

    def resume(self) -> None:
        self._paused = False

    # ------------------------------------------------------------------
    # Batch flow
    # ------------------------------------------------------------------

    def _may_read(self) -> bool:
        if self._paused:
            return False
        if self._quota is None:  # uncoordinated: free-running prefetch
            return True
        return self._quota > 0

    def _fill(self) -> None:
        while len(self._queue) < self.config.prefetch_depth and self._may_read():
            index = self._next_read_index
            worker = self.workers[index % self.config.num_workers]
            self._queue.append(worker.read(index))
            self._next_read_index += 1
            if self._quota is not None:
                self._quota -= 1

    def next_batch(self) -> Batch:
        """Deliver the next batch to the trainer."""
        self._fill()
        if not self._queue:
            if self.config.coordinated:
                raise ReaderQuotaExceededError(
                    "trainer requested a batch beyond the coordinated "
                    "quota; call begin_interval first"
                )
            raise ReaderError("reader is paused and its queue is empty")
        batch = self._queue.popleft()
        self._delivered += 1
        self._fill()  # keep prefetch warm, mirroring background workers
        return batch

    @property
    def in_flight(self) -> int:
        """Batches read but not yet delivered to the trainer."""
        return len(self._queue)

    @property
    def batches_delivered(self) -> int:
        return self._delivered

    # ------------------------------------------------------------------
    # State collection / resume
    # ------------------------------------------------------------------

    def collect_state(self) -> ReaderState:
        """Snapshot the reader's position for a checkpoint.

        Coordinated mode requires the in-flight queue to be empty (the
        protocol guarantees it at interval end); the recorded position
        then equals the trainer's. Uncoordinated mode records the
        reader's own (read-ahead) position — on resume, in-flight batches
        are lost, which is exactly the paper's trainer-reader gap.
        """
        if self.config.coordinated and self._queue:
            raise ReaderError(
                f"coordinated state collection with {len(self._queue)} "
                "in-flight batches; interval accounting is broken"
            )
        return ReaderState(
            next_batch_index=self._next_read_index,
            in_flight=len(self._queue),
            batches_delivered=self._delivered,
        )

    def restore(self, state: ReaderState) -> None:
        """Rewind the reader to a checkpointed state."""
        self._queue.clear()
        self._next_read_index = state.next_batch_index
        self._delivered = state.batches_delivered
        self._quota = 0 if self.config.coordinated else None
        self._paused = False
