"""Measurement: latency distributions and throughput time series.

These mirror what the paper reports: IOPS and bandwidth (throughput),
operation latency from submission to completion with percentiles
(§III-B), and per-interval throughput over time for the Fig. 6
interference plots.
"""

from __future__ import annotations

import numpy as np

from ..sim.engine import NS_PER_S

__all__ = ["LatencyStats", "TimeSeries"]


class LatencyStats:
    """A latency sample set with percentile queries."""

    def __init__(self) -> None:
        self._samples: list[int] = []

    def record(self, latency_ns: int) -> None:
        if latency_ns < 0:
            raise ValueError(f"negative latency {latency_ns}")
        self._samples.append(latency_ns)

    def merge(self, other: "LatencyStats") -> None:
        self._samples.extend(other._samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean_ns(self) -> float:
        """Mean latency; NaN when nothing completed.

        Zero samples is a legitimate outcome under fault injection (an
        aggressive profile can abort every command in the measurement
        window), so the summary statistics degrade to NaN rather than
        raising — the sweep still terminates and renders its tables.
        """
        if not self._samples:
            return float("nan")
        return float(np.mean(self.asarray()))

    @property
    def min_ns(self) -> int:
        self._require_samples()
        return int(min(self._samples))

    @property
    def max_ns(self) -> int:
        self._require_samples()
        return int(max(self._samples))

    def percentile_ns(self, p: float) -> float:
        """The p-th percentile latency (e.g. p=95 for the paper's p95).

        NaN when no samples were recorded (see :attr:`mean_ns`).
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._samples:
            return float("nan")
        return float(np.percentile(self.asarray(), p))

    @property
    def mean_us(self) -> float:
        return self.mean_ns / 1_000

    def percentile_us(self, p: float) -> float:
        return self.percentile_ns(p) / 1_000

    def _require_samples(self) -> None:
        if not self._samples:
            raise ValueError("no latency samples recorded")

    def asarray(self) -> np.ndarray:
        return np.asarray(self._samples, dtype=np.int64)


class TimeSeries:
    """Per-interval byte/operation throughput (Fig. 6-style series)."""

    def __init__(self, interval_ns: int):
        if interval_ns <= 0:
            raise ValueError(f"interval must be positive, got {interval_ns}")
        self.interval_ns = interval_ns
        self._bytes: dict[int, int] = {}
        self._ops: dict[int, int] = {}

    def record(self, time_ns: int, nbytes: int) -> None:
        bucket = time_ns // self.interval_ns
        self._bytes[bucket] = self._bytes.get(bucket, 0) + nbytes
        self._ops[bucket] = self._ops.get(bucket, 0) + 1

    def bandwidth_series(self) -> list[tuple[float, float]]:
        """[(interval_end_seconds, MiB/s), ...] over the recorded span."""
        if not self._bytes:
            return []
        first, last = min(self._bytes), max(self._bytes)
        scale = NS_PER_S / self.interval_ns  # intervals per second
        return [
            (
                (bucket + 1) * self.interval_ns / NS_PER_S,
                self._bytes.get(bucket, 0) * scale / (1024 * 1024),
            )
            for bucket in range(first, last + 1)
        ]

    @property
    def interval_count(self) -> int:
        """Intervals spanned by the recorded data (including empty ones)."""
        if not self._bytes:
            return 0
        return max(self._bytes) - min(self._bytes) + 1

    @property
    def zero_intervals(self) -> int:
        """Spanned intervals in which no I/O completed (stall intervals)."""
        if not self._bytes:
            return 0
        first, last = min(self._bytes), max(self._bytes)
        return sum(
            1 for bucket in range(first, last + 1) if bucket not in self._bytes
        )

    @property
    def idle_fraction(self) -> float:
        """Fraction of spanned intervals with zero completions.

        The Fig. 6 interference timelines care about exactly this: reset
        storms starve writes, which shows up as empty intervals in the
        victim's throughput series.
        """
        count = self.interval_count
        if count == 0:
            return 0.0
        return self.zero_intervals / count

    def bandwidth_values(self) -> np.ndarray:
        # dtype pinned so an empty series is float64, not the ambiguous
        # default of np.asarray([]).
        return np.asarray(
            [v for _, v in self.bandwidth_series()], dtype=np.float64
        )
