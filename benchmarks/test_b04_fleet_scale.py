"""B4 — fleet scale: event-heap dispatch from 100 to 10k jobs.

Not a paper figure: the paper's fleet results (Figs 15-17) aggregate
thousands of concurrent jobs, and reproducing that regime needs a
dispatcher that does not rescan every job per event. This bench runs
deliberately tiny jobs (one interval, one small table each) so that
*dispatch* — finding the globally earliest event — is the variable
under test, and measures end-to-end events/sec at 100 / 1k / 10k jobs
plus the time spent inside the pick-next-event call alone: the heap's
O(log n) pops keep both roughly flat, and the flatness gate fails the
run if they stop doing so.

Historical row: until PR 20 the O(jobs)-per-event lockstep scan was a
second engine in ``src/`` and this bench also timed it at 100 / 1k jobs,
gating the heap's dispatch-only throughput at >= 5x the scan's at 1k
(measured 15-25x). The scan now lives in ``tests/reference_lockstep.py``
as the differential tests' oracle and is not timed.

``B04_MAX_JOBS`` caps the swept scale (default 1000, which keeps the
default pytest run quick and is what the committed artifact holds).
The artifact keeps only the columns that repeat run to run (jobs,
events, the gate); the measured wall numbers are printed.
"""

from __future__ import annotations

import os
from time import perf_counter

from repro.config import FleetConfig
from repro.fleet import build_fleet

TITLE = "B4 - fleet scale: event-heap dispatch"

#: Scales swept (clamped by B04_MAX_JOBS).
SCALES = (100, 1_000, 10_000)

#: Flatness gate: events/sec at the largest scale must hold this
#: fraction of its 100-job throughput (O(log n) vs O(n) growth).
FLATNESS_FLOOR = 0.35


def scale_config(jobs: int) -> FleetConfig:
    """A fleet of minimal jobs: dispatch cost is the variable.

    One interval, one tiny table, no quantizer, no failures — each
    job contributes a handful of events whose handlers are as cheap
    as the simulator allows. The start stagger scales with the fleet
    so the shared link never becomes one permanent fleet-wide tie
    set (a saturated link costs O(backlog) per pick, which would
    measure the arbiter, not dispatch).
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


def run_instrumented(jobs: int):
    """Run one fleet, timing the dispatch call separately.

    Wraps the scheduler's pick-next-event method with a perf_counter
    accumulator (``next_event()`` looks it up per call, so an instance
    attribute shadows the bound method). Returns total wall seconds,
    dispatch-only seconds and the event count.
    """
    scheduler, _ = build_fleet(scale_config(jobs))
    inner = scheduler._next_event
    spent = [0.0]

    def timed():
        t0 = perf_counter()
        result = inner()
        spent[0] += perf_counter() - t0
        return result

    scheduler._next_event = timed
    t0 = perf_counter()
    scheduler.run()
    wall = perf_counter() - t0
    return wall, spent[0], len(scheduler.events)


def test_fleet_scale_dispatch(report):
    max_jobs = int(os.environ.get("B04_MAX_JOBS", "1000"))
    scales = [s for s in SCALES if s <= max_jobs]
    assert scales, f"B04_MAX_JOBS={max_jobs} below the smallest scale"

    rows = []
    evps = {}  # jobs -> end-to-end events/sec
    for jobs in scales:
        wall, dispatch_s, events = run_instrumented(jobs)
        evps[jobs] = events / wall
        rows.append(f"{jobs:>6d} {events:>8d}")
        # Host wall-clock is gated below but only printed: the
        # committed table keeps the columns that repeat run to
        # run (`python3 benchmarks/perf/run.py` owns wall numbers).
        print(
            f"{jobs:>6d} jobs: wall {wall:.2f} s, "
            f"{events / wall:.0f} events/s, dispatch "
            f"{dispatch_s * 1e3:.1f} ms "
            f"({1e6 * dispatch_s / events:.2f} us/dispatch)"
        )

    report.row(
        "minimal jobs (1 interval, 1 tiny table each); dispatch "
        "timed separately from the handlers' work"
    )
    report.table("  jobs   events", rows)

    # Throughput stays roughly flat as the fleet grows.
    flatness = evps[scales[-1]] / evps[scales[0]]
    report.row("")
    report.row(
        f"gate: events/sec ratio {scales[-1]} vs {scales[0]} jobs "
        f">= {FLATNESS_FLOOR}"
    )
    print(f"events/sec ratio: {flatness:.2f}")
    assert flatness >= FLATNESS_FLOOR, (
        f"events/sec decayed {scales[0]}->{scales[-1]} jobs: "
        f"{flatness:.2f}"
    )
