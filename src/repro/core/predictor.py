"""When to refresh the full baseline: the intermittent predictor.

Paper section 5.1 ("Intermittent Incremental Checkpoint"): incremental
checkpoints grow as the modified-row set accumulates, so Check-N-Run
periodically takes a fresh full checkpoint. The decision uses a simple
history-based comparison at the (i+1)-th interval:

    S_0 = 1 (full baseline), S_1..S_i = past incremental sizes
    F_c = 1 + S_1 + ... + S_i     (cost of restarting with a full ckpt,
                                   assuming the future mirrors the past)
    I_c = (i + 1) * S_i           (lower bound on continuing incremental:
                                   future increments are at least S_i)

    take a full checkpoint iff F_c <= I_c

The paper notes "this approach can be improved with more accurate
prediction models, which are part of future work" — we also implement a
linear-trend extrapolation predictor as that extension, and an ablation
bench compares the two.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..errors import CheckpointError


class BaselineRefreshPredictor(ABC):
    """Decides whether the next checkpoint should be a fresh full one."""

    name: str = "abstract"

    @abstractmethod
    def should_take_full(self, incremental_sizes: list[float]) -> bool:
        """Args: sizes S_1..S_i of the increments since the last full
        checkpoint, as fractions of that full checkpoint's size."""

    @staticmethod
    def _validate(sizes: list[float]) -> None:
        if any(s < 0 for s in sizes):
            raise CheckpointError(
                f"negative checkpoint size fraction in history: {sizes}"
            )


class HistoryPredictor(BaselineRefreshPredictor):
    """The paper's F_c <= I_c rule."""

    name = "history"

    def should_take_full(self, incremental_sizes: list[float]) -> bool:
        self._validate(incremental_sizes)
        if not incremental_sizes:
            return False  # nothing since the baseline yet
        i = len(incremental_sizes)
        future_full = 1.0 + sum(incremental_sizes)  # F_c
        future_incremental = (i + 1) * incremental_sizes[-1]  # I_c
        return future_full <= future_incremental


class LinearTrendPredictor(BaselineRefreshPredictor):
    """The paper's future-work extension: extrapolate increment growth.

    Fits a least-squares line through the increment-size history and
    projects the next ``i + 1`` increment sizes (clipped to
    [last size, 1.0] — increments never shrink under a one-shot
    baseline and never exceed a full checkpoint). Takes a full
    checkpoint when the projected incremental cost exceeds the
    full-restart cost.
    """

    name = "linear_trend"

    def should_take_full(self, incremental_sizes: list[float]) -> bool:
        self._validate(incremental_sizes)
        i = len(incremental_sizes)
        if i < 2:
            # Not enough points for a slope; fall back to the paper rule.
            return HistoryPredictor().should_take_full(incremental_sizes)
        x = np.arange(1, i + 1, dtype=np.float64)
        y = np.asarray(incremental_sizes, dtype=np.float64)
        slope, intercept = np.polyfit(x, y, 1)
        future_x = np.arange(i + 1, 2 * i + 2, dtype=np.float64)
        projected = np.clip(slope * future_x + intercept, y[-1], 1.0)
        future_incremental = float(np.sum(projected))
        future_full = 1.0 + float(np.sum(y))
        return future_full <= future_incremental
