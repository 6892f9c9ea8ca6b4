"""NAND timing model: page read, page program, and block erase latencies.

These are the per-die service times of the three physical flash
operations. Together with :class:`repro.flash.geometry.FlashGeometry` they
fix the device's raw performance envelope:

* aggregate program bandwidth = total_dies × page_size / program_ns,
* aggregate read rate = total_dies / read_ns,
* erase work is rare and batched (GC / implicit reclamation).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.engine import us

__all__ = ["NandTiming"]


@dataclass(frozen=True)
class NandTiming:
    """Per-die NAND operation latencies, in nanoseconds."""

    read_ns: int = us(65)
    program_ns: int = us(450)
    erase_ns: int = us(3_500)

    def __post_init__(self) -> None:
        for field in ("read_ns", "program_ns", "erase_ns"):
            value = getattr(self, field)
            if not isinstance(value, int) or value <= 0:
                raise ValueError(f"{field} must be a positive integer, got {value!r}")

    def program_bandwidth(self, geometry) -> float:
        """Aggregate program bandwidth in bytes/second for a geometry."""
        return geometry.total_dies * geometry.page_size * 1e9 / self.program_ns
