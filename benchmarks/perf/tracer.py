"""Outside-in span tracer: wraps public layer functions, never edits them.

The benchmark's traced pass installs ``perf_counter`` spans around the
public functions of each layer from *here* — nothing under ``src/``
knows about tracing, so the untraced pass runs the program exactly as
users do. A span records its name, start, end, the span that caused it
and the repeat (run id) it belongs to. Spans nest per thread; a span
that starts on a worker-pool thread points at the span that submitted
the task, and is excluded from that span's child time because it runs
beside it, not inside it.

Self time of a span is its duration minus the duration of its direct
same-thread children, so summing self time over every span of one
thread never counts a microsecond twice.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

#: A measure hook: ``(args, kwargs, result) -> {counter: increment}``.
Measure = Callable[[tuple, dict, object], dict]


@dataclass(frozen=True)
class Span:
    """One finished span (times are ``perf_counter`` seconds)."""

    span_id: int
    name: str
    start: float
    end: float
    #: The span that caused this one; 0 for a thread's outermost span.
    parent: int
    #: True when ``parent`` ran on another thread (a pool task pointing
    #: at its submitter): causal link only, not a same-thread child.
    cross_thread: bool
    thread: int
    run_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class _ThreadState:
    """One thread's open-span stack, finished records and counters."""

    __slots__ = ("stack", "records", "counts")

    def __init__(self) -> None:
        self.stack: list[int] = []
        self.records: list[list] = []
        self.counts: Counter = Counter()


class Tracer:
    """Collects spans and counters in memory; one instance per pass."""

    def __init__(self) -> None:
        self.run_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Every thread that ever recorded, registered on first use.
        self._threads: list[tuple[int, _ThreadState]] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append((threading.get_ident(), state))
            return state

    def current(self) -> int:
        """Id of this thread's innermost open span (0 if none)."""
        stack = self._state().stack
        return stack[-1] if stack else 0

    def begin(self, name: str, cause: int = 0) -> list:
        """Open a span; ``cause`` is the submitting span of a pool task."""
        state = self._state()
        stack = state.stack
        span_id = next(self._ids)
        if stack:
            parent, cross = stack[-1], False
        else:
            parent, cross = cause, cause != 0
        # The record keeps its stack so that end() needs no lookup.
        record = [span_id, name, 0.0, 0.0, parent, cross, self.run_id, stack]
        state.records.append(record)
        stack.append(span_id)
        record[2] = perf_counter()
        return record

    @staticmethod
    def end(record: list) -> None:
        record[3] = perf_counter()
        record[7].pop()

    def count(self, increments: dict) -> None:
        self._state().counts.update(increments)

    def drain(self) -> tuple[list[Span], Counter]:
        """Hand over and forget everything recorded so far.

        Call between repeats, when no span is open on any thread.
        """
        spans: list[Span] = []
        counts: Counter = Counter()
        with self._lock:
            for thread, state in self._threads:
                spans.extend(
                    Span(r[0], r[1], r[2], r[3], r[4], r[5], thread, r[6])
                    for r in state.records
                )
                state.records.clear()
                counts.update(state.counts)
                state.counts.clear()
        spans.sort(key=lambda s: s.span_id)
        return spans, counts


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------


class _TracedGenerator:
    """Times a generator per resumption (each ``next``/``send``).

    The time a staged generator spends suspended belongs to whoever
    drives it, so one span covers one resumption and its parent is the
    span that resumed it.
    """

    def __init__(self, gen, tracer: Tracer, name: str, measure) -> None:
        self._gen = gen
        self._tracer = tracer
        self._name = name
        self._measure = measure
        self._yielded = {name + ":yields": 1}

    def __iter__(self):
        return self

    def __next__(self):
        return self._resume(self._gen.__next__)

    def send(self, value):
        return self._resume(self._gen.send, value)

    def throw(self, *exc):
        return self._resume(self._gen.throw, *exc)

    def close(self):
        return self._gen.close()

    def _resume(self, step, *args):
        tracer = self._tracer
        record = tracer.begin(self._name)
        try:
            item = step(*args)
        except StopIteration as stop:
            tracer.end(record)
            if self._measure is not None:
                tracer.count(self._measure((), {}, stop.value))
            raise
        except BaseException:
            tracer.end(record)
            raise
        tracer.end(record)
        tracer.count(self._yielded)
        return item


def _wrap(fn, tracer: Tracer, name: str, kind: str, measure):
    if kind == "generator":

        def traced_generator(*args, **kwargs):
            tracer.count({name + ":generators": 1})
            return _TracedGenerator(
                fn(*args, **kwargs), tracer, name, measure
            )

        return traced_generator

    if kind == "count":
        # No span: only the measure hook runs (for calls so frequent
        # and so short that a span would cost more than the call).
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.count(measure(args, kwargs, result))
            return result

        return counted

    if kind == "submit":
        # TransferEngine.submit_task(self, fn, *args): the task body
        # runs on a pool thread; its span names the submitter as cause.
        def traced_submit(self, task, *args):
            cause = tracer.current()

            def traced_task(*task_args):
                record = tracer.begin(name, cause=cause)
                try:
                    return task(*task_args)
                finally:
                    tracer.end(record)

            return fn(self, traced_task, *args)

        return traced_submit

    def traced(*args, **kwargs):
        record = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(record)
        if measure is not None:
            tracer.count(measure(args, kwargs, result))
        return result

    return traced


@dataclass(frozen=True)
class Hook:
    """One public function to wrap.

    ``target`` is ``"package.module:function"`` or
    ``"package.module:Class.method"``. ``subclasses`` also wraps every
    already-imported subclass that overrides the method (abstract
    bases such as ``Quantizer``).
    """

    name: str
    target: str
    kind: str = "call"  # "call", "generator", "count" or "submit"
    measure: Measure | None = None
    subclasses: bool = False


def _all_subclasses(cls) -> list:
    found, todo = [], list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        found.append(sub)
        todo.extend(sub.__subclasses__())
    return found


class Installed:
    """Wrappers currently patched in; ``remove()`` restores originals."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def install(tracer: Tracer, hooks: list[Hook]) -> Installed:
    """Patch every hook's wrapper in; returns the undo handle.

    A module-level function is replaced in *every* imported ``repro``
    module that holds a reference to it, because callers bind it with
    ``from .codec import encode_array`` at import time.
    """
    installed = Installed()
    for hook in hooks:
        module_name, _, path = hook.target.partition(":")
        module = importlib.import_module(module_name)
        parts = path.split(".")
        if len(parts) == 1:
            original = getattr(module, parts[0])
            wrapper = _wrap(
                original, tracer, hook.name, hook.kind, hook.measure
            )
            for other in list(sys.modules.values()):
                if other is None or not getattr(
                    other, "__name__", ""
                ).startswith("repro"):
                    continue
                for attr, value in list(vars(other).items()):
                    if value is original:
                        installed.patch(other, attr, wrapper)
            continue
        cls = getattr(module, parts[0])
        owners = [cls]
        if hook.subclasses:
            owners += _all_subclasses(cls)
        for owner in owners:
            raw = owner.__dict__.get(parts[1])
            if raw is None or getattr(raw, "__isabstractmethod__", False):
                continue
            binder = type(raw) if isinstance(
                raw, (classmethod, staticmethod)
            ) else None
            wrapper = _wrap(
                raw.__func__ if binder else raw,
                tracer,
                hook.name,
                hook.kind,
                hook.measure,
            )
            installed.patch(
                owner, parts[1], binder(wrapper) if binder else wrapper
            )
    return installed


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self seconds per span id: duration minus same-thread children."""
    child_time: Counter = Counter()
    for span in spans:
        if span.parent and not span.cross_thread:
            child_time[span.parent] += span.duration
    return {s.span_id: s.duration - child_time[s.span_id] for s in spans}


@dataclass
class LayerTotals:
    """Per-name sums over one repeat's spans."""

    self_s: dict[str, float]
    duration_s: dict[str, float]
    calls: dict[str, int]


def totals_by_name(spans: list[Span]) -> LayerTotals:
    own = self_times(spans)
    self_s: Counter = Counter()
    duration_s: Counter = Counter()
    calls: Counter = Counter()
    for span in spans:
        self_s[span.name] += own[span.span_id]
        duration_s[span.name] += span.duration
        calls[span.name] += 1
    return LayerTotals(dict(self_s), dict(duration_s), dict(calls))


def write_chrome_trace(spans: list[Span], path, cap: int) -> int:
    """One complete event per line, as a JSON array Chrome can load.

    ``chrome://tracing`` and Perfetto read the file as is; every line
    between the brackets is one JSON object (minus its trailing comma),
    so line-oriented tools can treat it as JSONL. At most ``cap`` spans
    are written, earliest first; returns ``cap`` when it cut, else 0.
    """
    kept = spans[:cap]
    origin = min(s.start for s in kept)
    with open(path, "w") as out:
        out.write("[\n")
        for index, span in enumerate(kept):
            event = {
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": span.run_id,
                "tid": span.thread,
                "args": {
                    "id": span.span_id,
                    "parent": span.parent,
                    "cross_thread": span.cross_thread,
                },
            }
            tail = ",\n" if index + 1 < len(kept) else "\n"
            out.write(json.dumps(event, separators=(",", ":")) + tail)
        out.write("]\n")
    return cap if len(spans) > cap else 0
