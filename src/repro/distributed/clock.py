"""Simulated time for the training/checkpointing pipeline.

The paper's measurements (snapshot stall, write latency, interval lengths)
are all wall-clock quantities on Meta's clusters. We reproduce the *timing
structure* with a shared :class:`SimClock`: the trainer advances it with
compute/communication/stall durations, while background activities (the
checkpoint writer, the object store) occupy parallel *timelines* whose
completion times gate events such as checkpoint validity.

Nothing here sleeps; simulated seconds are plain floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SimulationError


@dataclass
class TimeSpan:
    """A closed interval of simulated time."""

    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class SimClock:
    """A monotonically advancing simulated clock with per-label totals.

    Components share one instance. ``advance`` moves time forward (the
    trainer's compute, stalls) and adds the duration to its label's
    total, so accountants can attribute simulated time (e.g. what
    fraction of training time went to snapshot stalls, paper section 6.1).
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._totals: dict[str, float] = {}

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, duration: float, label: str = "unlabelled") -> float:
        """Advance the clock by ``duration`` seconds and return the new time.

        Raises :class:`SimulationError` on negative durations: simulated
        time never flows backwards.
        """
        if duration < 0:
            raise SimulationError(
                f"cannot advance clock by negative duration {duration!r}"
            )
        self._now += duration
        self._totals[label] = self._totals.get(label, 0.0) + duration
        return self._now

    def advance_to(self, timestamp: float, label: str = "wait") -> float:
        """Advance to an absolute timestamp (no-op if already past it)."""
        if timestamp > self._now:
            self.advance(timestamp - self._now, label)
        return self._now

    def total(self, label: str) -> float:
        """Total simulated seconds attributed to ``label``."""
        return self._totals.get(label, 0.0)

    def fraction(self, label: str) -> float:
        """Fraction of all elapsed time attributed to ``label``."""
        if self._now == 0.0:
            return 0.0
        return self.total(label) / self._now


class Timeline:
    """A background activity lane tied to a :class:`SimClock`.

    Models a resource that processes work serially in the background (the
    checkpoint writer's CPU processes, the storage link): work submitted at
    time ``t`` starts at ``max(t, free_at)`` and finishes ``duration``
    later. The trainer's clock is *not* advanced — that is the decoupling
    the paper builds (section 4.2).
    """

    def __init__(self, clock: SimClock, name: str) -> None:
        self._clock = clock
        self.name = name
        self._free_at = clock.now

    @property
    def free_at(self) -> float:
        """Earliest simulated time at which new work could start."""
        return self._free_at

    def busy_at(self, timestamp: float) -> bool:
        """Whether the lane is still occupied at ``timestamp``."""
        return self._free_at > timestamp

    def submit(
        self,
        duration: float,
        earliest: float | None = None,
    ) -> TimeSpan:
        """Occupy the lane for ``duration`` seconds; returns the span.

        The span starts when the lane frees up (or now, if idle).
        ``earliest`` defers the start further — used by the pipelined
        checkpoint writer, where a chunk's store cannot begin before its
        quantization finished on the CPU lane.
        """
        if duration < 0:
            raise SimulationError(
                f"cannot submit negative-duration work {duration!r}"
            )
        start = max(self._clock.now, self._free_at, earliest or 0.0)
        span = TimeSpan(start, start + duration)
        self._free_at = span.end
        return span


@dataclass
class Stopwatch:
    """Accumulates *real* wall-clock durations (for latency benches).

    Used where the paper reports measured latencies (Figs 12/13): the
    quantizers run for real in numpy, and the bench reports both measured
    seconds and model-projected seconds at paper scale.
    """

    elapsed: float = 0.0
    _starts: list[float] = field(default_factory=list)

    def __enter__(self) -> "Stopwatch":
        import time

        self._starts.append(time.perf_counter())
        return self

    def __exit__(self, *exc: object) -> None:
        import time

        self.elapsed += time.perf_counter() - self._starts.pop()
