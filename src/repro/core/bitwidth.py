"""Dynamic quantization bit-width selection (paper section 6.2.1).

Quantization error only enters training when a job *restores* from a
quantized checkpoint; each restore injects one round of de-quantization
noise. The paper measures how many restores each bit width tolerates
before cumulative accuracy degradation crosses the 0.01% business
threshold:

    expected restores L <= 1   -> 2-bit
    1 < L <= 3                 -> 3-bit
    3 < L < 20                 -> 4-bit
    20 <= L                    -> 8-bit  (tolerates 100+ restores)

Check-N-Run estimates L from the job's expected duration and the
fleet's failure probability, picks the width up front, and falls back
to 8-bit automatically if observed failures exceed the estimate.
"""

from __future__ import annotations

from ..errors import CheckpointError

#: (max restores tolerated, bit width) in ascending order; the paper's
#: Fig 14 thresholds.
RESTORE_TOLERANCE_TABLE: tuple[tuple[int, int], ...] = (
    (1, 2),
    (3, 3),
    (19, 4),
)

#: Fallback width: tolerates over 100 restores (section 6.2.1).
FALLBACK_BIT_WIDTH = 8


def select_bit_width(expected_restores: int) -> int:
    """Pick the narrowest width whose restore tolerance covers ``L``."""
    if expected_restores < 0:
        raise CheckpointError(
            f"expected_restores must be >= 0, got {expected_restores}"
        )
    for max_restores, bits in RESTORE_TOLERANCE_TABLE:
        if expected_restores <= max_restores:
            return bits
    return FALLBACK_BIT_WIDTH


class BitWidthController:
    """Holds the chosen width; falls back to 8-bit on excess failures."""

    def __init__(self, expected_restores_estimate: int) -> None:
        if expected_restores_estimate < 0:
            raise CheckpointError("estimate must be >= 0")
        self.expected = expected_restores_estimate
        self.observed = 0
        self._width = select_bit_width(expected_restores_estimate)
        self.fell_back = False

    @property
    def bit_width(self) -> int:
        return self._width

    def record_restore(self) -> int:
        """Note one restore; returns the (possibly updated) width.

        "If the number of failures exceeds the estimates during
        training, Check-N-Run automatically falls back to 8-bit
        quantization." (section 6.2.1)
        """
        self.observed += 1
        if self.observed > self.expected and not self.fell_back:
            self._width = FALLBACK_BIT_WIDTH
            self.fell_back = True
        return self._width
