"""Ablation a02: sampled parameter profiling matches full profiling.

Paper (section 5.2, parameter selection): Check-N-Run picks the greedy
parameters by profiling a uniformly sampled 0.001% of the checkpoint;
"the sampled checkpoint provided identical parameter selection compared
with the full checkpoint". The bench compares the selections and times
both.
"""

from __future__ import annotations

from repro.distributed.clock import Stopwatch
from repro.quant.profiler import select_num_bins, select_ratio

TITLE = "Ablation a02 - sampled vs full profiling parameter selection"

CANDIDATE_BINS = (5, 15, 25, 35, 45)
SAMPLE_FRACTIONS = (1.0, 0.25, 0.05, 0.01)


def _run(tensor):
    out = {}
    for fraction in SAMPLE_FRACTIONS:
        watch = Stopwatch()
        with watch:
            bins = select_num_bins(
                tensor,
                bits=2,
                candidates=CANDIDATE_BINS,
                sample_fraction=fraction,
                seed=7,
            )
        out[fraction] = (bins.chosen, bins.sample_rows, watch.elapsed)
    return out


def test_a02_profiler_sampling(benchmark, report, bench_tensor):
    results = benchmark.pedantic(
        _run, args=(bench_tensor,), rounds=1, iterations=1
    )

    # Host wall-clock is asserted on below but only printed: the
    # committed table keeps the columns that repeat run to run.
    report.table(
        "sample_fraction   rows_profiled   chosen_bins",
        [
            f"{fraction:15.2f}   {rows:13d}   {chosen:11.0f}"
            for fraction, (chosen, rows, _) in results.items()
        ],
    )
    for fraction, (_, _, seconds) in results.items():
        print(f"sample_fraction {fraction:.2f}: {seconds:.3f} s")

    full_choice = results[1.0][0]
    for fraction in SAMPLE_FRACTIONS[1:]:
        assert results[fraction][0] == full_choice, (
            f"sampling at {fraction} changed the parameter selection"
        )
    # Sampling must actually be cheaper than full profiling.
    assert results[0.01][2] < results[1.0][2]
    speedup = results[1.0][2] / max(results[0.01][2], 1e-9)
    print(f"1% sampling is {speedup:.0f}x faster than full profiling")
    report.row("identical selection at every fraction")

    # The ratio selector works off the sampled choice too.
    ratio = select_ratio(
        bench_tensor,
        bits=2,
        num_bins=int(full_choice),
        sample_fraction=0.05,
        seed=7,
    )
    report.row(f"selected ratio at 5% sampling: {ratio.chosen:.1f}")
    assert 0.0 < ratio.chosen <= 1.0
