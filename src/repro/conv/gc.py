"""Garbage-collection policy for the conventional SSD.

Greedy victim selection with watermark hysteresis: GC starts when the
free-block fraction drops below the low watermark and runs until the high
watermark is restored. The hysteresis (plus whole-block relocation
bursts) is what makes user throughput *fluctuate* on the conventional
device — the behaviour Fig. 6 contrasts with ZNS.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GcPolicy"]


@dataclass(frozen=True)
class GcPolicy:
    """Watermark hysteresis thresholds (fractions of total blocks)."""

    low_watermark: float = 0.03
    high_watermark: float = 0.055

    def __post_init__(self) -> None:
        if not 0 < self.low_watermark < self.high_watermark < 1:
            raise ValueError(
                f"require 0 < low ({self.low_watermark}) < high "
                f"({self.high_watermark}) < 1"
            )

    def should_start(self, free_fraction: float) -> bool:
        return free_fraction < self.low_watermark

    def should_stop(self, free_fraction: float) -> bool:
        return free_fraction >= self.high_watermark
