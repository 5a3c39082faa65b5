"""B4 — fleet scale: event-heap dispatch vs the lockstep scan.

Not a paper figure: the paper's fleet results (Figs 15-17) aggregate
thousands of concurrent jobs, and reproducing that regime needs a
dispatcher that does not rescan every job per event. This bench runs
deliberately tiny jobs (one interval, one small table each) so that
*dispatch* — finding the globally earliest event — is the variable
under test, and measures:

* end-to-end events/sec under heap dispatch at 100 / 1k / 10k jobs —
  the heap's O(log n) pops keep this roughly flat while the lockstep
  scan's O(jobs) rescan decays linearly;
* dispatch-only throughput (time spent inside the pick-next-event
  call, excluding the handlers' real work — the two engines run
  bit-identical event sequences, so handler cost is common-mode) for
  both engines at the comparison scale, asserting the heap is at
  least ``DISPATCH_SPEEDUP_FLOOR`` x faster.

``B04_MAX_JOBS`` caps the swept scale (default 1000, which keeps the
default pytest run quick and is what the committed artifact holds).
The lockstep engine is never swept past 1k — at 10k its rescan alone
would dominate the suite's runtime, which is the point of the heap.
The artifact keeps only the columns that repeat run to run (jobs,
events, the gates); the measured wall numbers are printed.
"""

from __future__ import annotations

import os
from time import perf_counter

from repro.config import FleetConfig
from repro.fleet import build_fleet

TITLE = "B4 - fleet scale: event-heap dispatch vs lockstep scan"

#: Scales swept (clamped by B04_MAX_JOBS).
SCALES = (100, 1_000, 10_000)
#: The lockstep baseline stops here; beyond it the O(jobs) scan is
#: the suite's runtime, not a data point.
LOCKSTEP_MAX = 1_000

#: CI gate: heap dispatch must out-throughput lockstep dispatch by at
#: least this factor at the comparison scale (measured ~15-25x at 1k).
DISPATCH_SPEEDUP_FLOOR = 5.0
#: Flatness gate: heap events/sec at the largest scale must hold this
#: fraction of its 100-job throughput (O(log n) vs O(n) growth).
FLATNESS_FLOOR = 0.35


def scale_config(jobs: int) -> FleetConfig:
    """A fleet of minimal jobs: dispatch cost is the variable.

    One interval, one tiny table, no quantizer, no failures — each
    job contributes a handful of events whose handlers are as cheap
    as the simulator allows. The start stagger scales with the fleet
    so the shared link never becomes one permanent fleet-wide tie
    set (a saturated link costs O(backlog) per pick in *both*
    engines, which would measure the arbiter, not dispatch).
    """
    return FleetConfig(
        num_jobs=jobs,
        intervals_per_job=1,
        seed=0xB04,
        batch_size=4,
        embedding_dim=4,
        rows_per_table_choices=(64,),
        num_tables_choices=(1,),
        interval_batches_choices=(2,),
        policy_choices=("one_shot",),
        policy_weights=(1.0,),
        quantizer_choices=("none",),
        bit_width_choices=(8,),
        inject_failures=False,
        stagger_s=max(30.0, 0.05 * jobs),
    )


def run_instrumented(jobs: int, dispatch: str):
    """Run one fleet, timing the dispatch call separately.

    Wraps the engine's pick-next-event method with a perf_counter
    accumulator (``next_event()`` resolves it per call, so an instance
    attribute shadows the bound method). Returns the scheduler, total
    wall seconds, dispatch-only seconds and the event count.
    """
    scheduler, _ = build_fleet(scale_config(jobs), dispatch=dispatch)
    inner = (
        scheduler._next_event_heap
        if dispatch == "heap"
        else scheduler._next_event
    )
    spent = [0.0]

    def timed():
        t0 = perf_counter()
        result = inner()
        spent[0] += perf_counter() - t0
        return result

    if dispatch == "heap":
        scheduler._next_event_heap = timed
    else:
        scheduler._next_event = timed
    t0 = perf_counter()
    scheduler.run()
    wall = perf_counter() - t0
    return scheduler, wall, spent[0], len(scheduler.events)


def test_fleet_scale_dispatch(report):
    max_jobs = int(os.environ.get("B04_MAX_JOBS", "1000"))
    scales = [s for s in SCALES if s <= max_jobs]
    assert scales, f"B04_MAX_JOBS={max_jobs} below the smallest scale"

    rows = []
    evps = {}  # (dispatch, jobs) -> end-to-end events/sec
    dispatch_evps = {}  # (dispatch, jobs) -> dispatch-only events/sec
    event_logs = {}
    for dispatch in ("heap", "lockstep"):
        for jobs in scales:
            if dispatch == "lockstep" and jobs > LOCKSTEP_MAX:
                continue
            sched, wall, dispatch_s, events = run_instrumented(
                jobs, dispatch
            )
            evps[dispatch, jobs] = events / wall
            dispatch_evps[dispatch, jobs] = events / dispatch_s
            if jobs == scales[0]:
                event_logs[dispatch] = [
                    (e.kind, e.job_id, e.time_s) for e in sched.events
                ]
            rows.append(f"{dispatch:>9s} {jobs:>6d} {events:>8d}")
            # Host wall-clock is gated below but only printed: the
            # committed table keeps the columns that repeat run to
            # run (`python3 benchmarks/perf/run.py` owns wall numbers).
            print(
                f"{dispatch:>9s} {jobs:>6d} jobs: wall {wall:.2f} s, "
                f"{events / wall:.0f} events/s, dispatch "
                f"{dispatch_s * 1e3:.1f} ms "
                f"({1e6 * dispatch_s / events:.2f} us/dispatch)"
            )

    report.row(
        "minimal jobs (1 interval, 1 tiny table each); dispatch "
        "timed separately from the handlers' common-mode work"
    )
    report.table(" dispatch   jobs   events", rows)

    # The engines agree event-for-event at the smallest scale (the
    # full payload-level matrix lives in tests/test_fleet_eventqueue).
    assert event_logs["heap"] == event_logs["lockstep"]

    # Dispatch-only speedup at the largest common scale: handler work
    # is identical (bit-identical runs), so this isolates the O(n)
    # scan vs O(log n) heap difference the refactor claims.
    compare = max(s for s in scales if s <= LOCKSTEP_MAX)
    speedup = (
        dispatch_evps["heap", compare]
        / dispatch_evps["lockstep", compare]
    )
    report.row("")
    report.row(
        f"gate: dispatch-only heap speedup at {compare} jobs "
        f">= {DISPATCH_SPEEDUP_FLOOR:.0f}x"
    )
    print(f"dispatch-only speedup at {compare} jobs: {speedup:.1f}x")
    assert speedup >= DISPATCH_SPEEDUP_FLOOR, (
        f"heap dispatch only {speedup:.1f}x lockstep at {compare} "
        f"jobs (floor {DISPATCH_SPEEDUP_FLOOR}x)"
    )

    # Heap throughput stays roughly flat as the fleet grows.
    flatness = evps["heap", scales[-1]] / evps["heap", scales[0]]
    report.row(
        f"gate: heap events/sec ratio {scales[-1]} vs {scales[0]} jobs "
        f">= {FLATNESS_FLOOR}"
    )
    print(f"heap events/sec ratio: {flatness:.2f}")
    assert flatness >= FLATNESS_FLOOR, (
        f"heap events/sec decayed {scales[0]}->{scales[-1]} jobs: "
        f"{flatness:.2f}"
    )
