"""Indexed event heap for the fleet scheduler's dispatch loop.

Rescanning every job per event to find the globally earliest candidate
is O(events x jobs) — fine at 64 jobs and hopeless at 10k. This module
gives the scheduler an indexed heap per *lane* so dispatch is O(log n)
pops plus O(log n) re-keys for only the jobs an event actually touched.

One lane per class of pending event:

* ``write`` — jobs with a staged write whose next PUT part is
  announced, and guest reads (a serving plane's publish, flip and
  lookup GETs) with their next part announced. The heap key is the
  part's static ``ready_s``; the link floor (``timeline.free_at``) is
  applied *at pop time*. That is sound because
  ``min_i max(ready_i, L) == max(min_i ready_i, L)`` — taking
  the max with a common floor is monotone, so the raw-``ready_s``
  minimum is the floored minimum.
* ``book`` — jobs whose staged write's generator is exhausted but
  whose bookkeeping event is still owed, keyed at the job clock
  (un-floored: bookkeeping moves no bytes).
* ``train`` — jobs with training (or a re-stage slot) due, keyed at
  the job clock.
* ``timer`` — guest compute events (a serving plane's request
  dispatch), keyed at their due time.

Entries are *lazily invalidated*: re-keying a job pushes a new entry
and leaves the stale one in the heap; pops discard entries whose key no
longer matches the lane's authoritative ``job -> key`` map. A job's key
only changes while the scheduler is processing that job's own event
(per-job clocks never advance in the background), so the scheduler
re-keys exactly the jobs an event touched and every other cached key
stays valid.

Ties: candidates within :data:`TIME_EPS` (applied *relatively* — see
:func:`tie_threshold`) of the best time form the tie set. For link
operations the whole decision — tie set, background yield, arbiter —
is :func:`pick_link_op`, shared by the fleet scheduler's pick and its
recovery drain; tied trains go to the lowest job id, tied timers to
the lowest key at exactly the earliest time.
"""

from __future__ import annotations

from heapq import heappop, heappush

#: Relative tie-break tolerance between event times. Two candidate
#: times tie when they differ by at most ``TIME_EPS * max(1, |best|)``
#: — the relative form keeps ties meaningful at 10k-job clock
#: magnitudes where an absolute ``1e-12`` would vanish beneath float
#: spacing. (For ``|best| <= 1`` this is exactly the historical
#: absolute epsilon.)
TIME_EPS = 1e-12


def tie_threshold(best: float) -> float:
    """Inclusive upper bound on times that tie ``best``."""
    return best + TIME_EPS * max(1.0, abs(best))


def pick_link_op(ops, arbiter):
    """Of all announced transfers, the one that takes the link next.

    ``ops`` is a non-empty sequence of ``(time_s, stream, background,
    item)``: the time the operation could start (callers floor a part's
    ``ready_s`` at the link's ``free_at``), the stream it is booked to,
    whether it is background prefetch, and the caller's handle for it.
    The rule, stated once for every pick of the link:

    1. the earliest time wins;
    2. everything within :func:`tie_threshold` of it ties;
    3. a background operation (a serving flip's warm read) yields to
       any foreground operation it ties with — a tie means the link is
       contended, and prefetch must never add to the lookup tail;
    4. between streams still tied, ``arbiter.pick`` decides (strict
       tier priority, fair-queueing tags within a tier); within the
       chosen stream the first listed operation goes.

    Returns ``(earliest_time_s, item)``.
    """
    best = min(op[0] for op in ops)
    bound = tie_threshold(best)
    tied = [op for op in ops if op[0] <= bound]
    if not all(op[2] for op in tied):
        tied = [op for op in tied if not op[2]]
    streams = {op[1] for op in tied}
    if len(streams) > 1:
        chosen = arbiter.pick(sorted(streams))
        tied = [op for op in tied if op[1] == chosen]
    return best, tied[0][3]


class LaneHeap:
    """One lane's indexed min-heap of ``(time, job_id)`` entries.

    ``set`` re-keys (push + stale-mark), ``remove`` drops, ``best``
    returns the earliest valid time, ``tied`` enumerates the jobs whose
    time ties a threshold. Stale entries are discarded lazily whenever
    they surface at the top.
    """

    __slots__ = ("_heap", "_keys")

    def __init__(self) -> None:
        self._heap: list[tuple[float, str]] = []
        self._keys: dict[str, float] = {}

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._keys

    def key(self, job_id: str) -> float | None:
        return self._keys.get(job_id)

    def set(self, job_id: str, time_s: float) -> None:
        """Insert or re-key a job; the old entry goes stale in place."""
        if self._keys.get(job_id) == time_s:
            return
        self._keys[job_id] = time_s
        heappush(self._heap, (time_s, job_id))

    def remove(self, job_id: str) -> None:
        """Drop a job; its heap entries go stale in place."""
        self._keys.pop(job_id, None)

    def _prune(self) -> None:
        heap = self._heap
        while heap and self._keys.get(heap[0][1]) != heap[0][0]:
            heappop(heap)

    def best(self, floor: float | None = None) -> float | None:
        """Earliest valid time, optionally floored (write lane)."""
        self._prune()
        if not self._heap:
            return None
        time_s = self._heap[0][0]
        if floor is not None and floor > time_s:
            return floor
        return time_s

    def first(self) -> str | None:
        """The earliest valid entry's key (lowest key on equal times)."""
        self._prune()
        return self._heap[0][1] if self._heap else None

    def tied(
        self, threshold: float, floor: float | None = None
    ) -> list[str]:
        """Jobs whose (floored) time ties ``threshold``.

        With a floor ``L``, an entry's effective time is
        ``max(key, L)``; when ``L <= tie_threshold(threshold)`` that
        ties iff the raw key does, and when ``L`` exceeds the bound no
        floored entry can tie at all — so raw-key comparison suffices.
        Valid entries popped past the bound are re-pushed, restoring
        the heap; stale ones are discarded as a side effect.
        """
        bound = tie_threshold(threshold)
        if floor is not None and floor > bound:
            return []
        heap = self._heap
        keys = self._keys
        popped: list[tuple[float, str]] = []
        out: list[str] = []
        while heap and heap[0][0] <= bound:
            entry = heappop(heap)
            if keys.get(entry[1]) == entry[0]:
                popped.append(entry)
                out.append(entry[1])
        for entry in popped:
            heappush(heap, entry)
        return out


class FleetEventQueue:
    """The scheduler's four dispatch lanes as indexed heaps."""

    __slots__ = ("write", "book", "train", "timer")

    def __init__(self) -> None:
        self.write = LaneHeap()
        self.book = LaneHeap()
        self.train = LaneHeap()
        self.timer = LaneHeap()

    def clear_write_lanes(self, job_id: str) -> None:
        self.write.remove(job_id)
        self.book.remove(job_id)

    def best_write(self, link_free: float) -> float | None:
        """Earliest staged-write event time across both write lanes.

        The ``write`` lane is floored by the link's ``free_at`` (a part
        cannot start earlier); the ``book`` lane is not.
        """
        floored = self.write.best(floor=link_free)
        book = self.book.best()
        if floored is None:
            return book
        if book is None:
            return floored
        return min(floored, book)

    def tied_writes(self, best: float, link_free: float) -> list[str]:
        """The write-lane tie set at ``best`` (both lanes)."""
        return self.write.tied(best, floor=link_free) + self.book.tied(
            best
        )
