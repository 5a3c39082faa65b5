"""Reader-trainer coordination (paper section 4.1).

The controller tells the reader master exactly how many batches to read
before the next checkpoint; the reader reads precisely that many and
stops. When the trainer finishes the interval's last batch, nothing is
in flight and the reader state equals the trainer state — the gap that
would otherwise skip or double-train samples on resume is gone.
"""

from __future__ import annotations

from ..data.reader import ReaderMaster
from ..data.state import ReaderState
from ..errors import ReaderError


class ReaderCoordinator:
    """The controller-side handle on the reader master."""

    def __init__(self, reader: ReaderMaster) -> None:
        self.reader = reader

    @property
    def coordinated(self) -> bool:
        return self.reader.config.coordinated

    def grant_interval(self, num_batches: int) -> None:
        """Authorise the reader to serve the next interval's batches."""
        if self.coordinated:
            self.reader.begin_interval(num_batches)

    def collect_state(self) -> ReaderState:
        """Pause reading and capture the reader state for a checkpoint.

        In coordinated mode the queue must already be drained — a
        non-empty queue here means the trainer did not consume the whole
        interval, which is a protocol violation worth failing loudly on.
        """
        self.reader.pause()
        try:
            state = self.reader.collect_state()
        except ReaderError:
            self.reader.resume()
            raise
        return state

    def resume(self) -> None:
        """Let the reader continue after state collection."""
        self.reader.resume()
