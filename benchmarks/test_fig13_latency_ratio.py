"""Fig 13: checkpoint quantization latency vs ratio (25 and 45 bins).

Paper: latency grows with ratio (a wider fraction of the range is
searched); the 45-bin curve sits above the 25-bin curve.
"""

from __future__ import annotations

import numpy as np

from repro.distributed.clock import Stopwatch
from repro.metrics.latency import REFERENCE_ELEMENTS, LatencyModel
from repro.quant.adaptive import greedy_range_search

TITLE = "Fig 13 - quantization latency vs ratio (25 and 45 bins)"

RATIOS = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
BINS = (25, 45)


def _measure(tensor: np.ndarray) -> dict[tuple[int, float], float]:
    measured = {}
    for bins in BINS:
        for ratio in RATIOS:
            watch = Stopwatch()
            with watch:
                greedy_range_search(tensor, 4, bins, ratio)
            measured[(bins, ratio)] = watch.elapsed
    return measured


def test_fig13_latency_ratio(benchmark, report, bench_tensor):
    measured = benchmark.pedantic(
        _measure, args=(bench_tensor,), rounds=1, iterations=1
    )
    model = LatencyModel()
    projected = {
        (bins, ratio): model.adaptive_s(REFERENCE_ELEMENTS, bins, ratio)
        for bins in BINS
        for ratio in RATIOS
    }

    # Host wall-clock is asserted on below but only printed: the
    # committed table keeps the columns that repeat run to run.
    report.table(
        "ratio   25bins_paper_s   45bins_paper_s",
        [
            f"{ratio:5.1f}   {projected[(25, ratio)]:14.0f}   "
            f"{projected[(45, ratio)]:14.0f}"
            for ratio in RATIOS
        ],
    )
    for ratio in RATIOS:
        print(f"ratio {ratio:.1f}: 25 bins measured "
              f"{measured[(25, ratio)]:.3f} s")

    for bins in BINS:
        series = [projected[(bins, r)] for r in RATIOS]
        assert series == sorted(series)  # latency grows with ratio
        local = [measured[(bins, r)] for r in RATIOS]
        assert local[-1] > local[0]
    # 45-bin curve dominates the 25-bin curve at every ratio.
    for ratio in RATIOS:
        assert projected[(45, ratio)] >= projected[(25, ratio)]
    report.row(
        "latency grows with ratio; 45-bin curve above 25-bin curve "
        "(matches paper)"
    )
