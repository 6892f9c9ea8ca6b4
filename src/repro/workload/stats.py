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

    def asarray(self) -> np.ndarray:
        return np.asarray(self._samples, dtype=np.int64)


class TimeSeries:
    """Per-interval byte throughput (Fig. 6-style series)."""

    def __init__(self, interval_ns: int):
        if interval_ns <= 0:
            raise ValueError(f"interval must be positive, got {interval_ns}")
        self.interval_ns = interval_ns
        self._bytes: dict[int, int] = {}

    def record(self, time_ns: int, nbytes: int) -> None:
        bucket = time_ns // self.interval_ns
        self._bytes[bucket] = self._bytes.get(bucket, 0) + nbytes

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

    def bandwidth_values(self) -> np.ndarray:
        # dtype pinned so an empty series is float64, not the ambiguous
        # default of np.asarray([]).
        return np.asarray(
            [v for _, v in self.bandwidth_series()], dtype=np.float64
        )
