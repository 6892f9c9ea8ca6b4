"""Counters, gauges, and fixed-bucket histograms for the simulated stack.

A :class:`MetricsRegistry` is the one place run-time statistics live:
devices publish completion counts, error counts, byte totals, queue
depths, write-buffer fill, and per-opcode latency histograms; the
workload runner publishes job-level op/byte/latency aggregates. The
legacy ``DeviceCounters`` accounting is now a thin façade over a
registry (see :mod:`repro.zns.device`).

Everything is plain integer/float arithmetic on the simulated-time
observations — metrics never touch the RNG or the event heap, so
enabling them cannot change simulation results.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterator, Optional, Sequence, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_NS",
    "bucket_percentile",
]

#: Exponential latency buckets: 1 µs .. ~8.6 s in powers of two (ns).
DEFAULT_LATENCY_BUCKETS_NS: tuple[int, ...] = tuple(
    1_000 * 2**i for i in range(24)
)


def bucket_percentile(bounds: Sequence[int], counts: Sequence[int],
                      total: int, p: float) -> float:
    """Interpolated p-th percentile of bucket ``counts`` (one more than
    ``bounds``, the last one overflow) that sum to ``total`` > 0."""
    rank = p / 100 * total
    cumulative = 0
    for i, count in enumerate(counts):
        if count > 0 and cumulative + count >= rank:
            lower = 0 if i == 0 else bounds[i - 1]
            if i == len(bounds):
                return float(lower)  # overflow bucket: clamp to last bound
            fraction = (rank - cumulative) / count
            return lower + (bounds[i] - lower) * min(1.0, max(0.0, fraction))
        cumulative += count
    return float(bounds[-1])


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """A point-in-time value, with high-watermark tracking."""

    __slots__ = ("name", "help", "value", "max_value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0
        self.max_value = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def inc(self, amount: float = 1) -> None:
        self.set(self.value + amount)

    def snapshot(self) -> dict[str, float]:
        return {"value": self.value, "max": self.max_value}


class Histogram:
    """A fixed-bucket histogram with interpolated percentile queries.

    ``bounds`` are inclusive upper bounds of each bucket; one implicit
    overflow bucket catches everything above the last bound. Percentiles
    interpolate linearly within the winning bucket (the standard
    Prometheus-style estimate), which the bucket-math unit tests pin
    down exactly. ``counts`` holds the live per-bucket counts (the last
    entry is the overflow bucket).
    """

    __slots__ = ("name", "help", "bounds", "counts", "total", "sum")

    def __init__(self, name: str, bounds: Sequence[int], help: str = ""):
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        ordered = list(bounds)
        if sorted(ordered) != ordered or len(set(ordered)) != len(ordered):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        self.name = name
        self.help = help
        self.bounds: tuple[int, ...] = tuple(ordered)
        self.counts = [0] * (len(ordered) + 1)
        self.total = 0
        self.sum = 0

    def observe(self, value: Union[int, float]) -> None:
        if value < 0:
            raise ValueError(f"histogram {self.name!r} observed negative {value}")
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def percentile(self, p: float) -> float:
        """Interpolated p-th percentile (p in [0, 100]).

        An empty histogram has no percentiles: returns NaN rather than
        raising, so periodic samplers and report generators can query
        idle windows without guarding every call. Out-of-range ``p`` is
        still a caller bug and raises.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.total == 0:
            return float("nan")
        return bucket_percentile(self.bounds, self.counts, self.total, p)

    def snapshot(self) -> dict[str, Any]:
        return {
            "count": self.total,
            "sum": self.sum,
            "mean": self.mean,
            "buckets": dict(zip(self.bounds, self.counts)),
            "overflow": self.counts[-1],
        }


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named get-or-create store of counters/gauges/histograms."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    # -- access ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def _get_or_create(self, name: str, kind: type, factory) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name, help))

    def histogram(self, name: str,
                  bounds: Sequence[int] = DEFAULT_LATENCY_BUCKETS_NS,
                  help: str = "") -> Histogram:
        return self._get_or_create(
            name, Histogram, lambda: Histogram(name, bounds, help)
        )

    # -- reporting -------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        return {name: self._metrics[name].snapshot() for name in self.names()}

    def merge_snapshot(self, snapshot: dict[str, Any]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Used by the execution engine to combine per-worker registries:
        counters add, histograms add bucket-wise, gauges take the
        incoming value (last write wins) and the max of the two highs.

        Gauge semantics are **pinned, not incidental**: the engine merges
        snapshots in *plan order* (the deterministic point order emitted
        by the experiment plan), never in completion order, so the gauge
        value that survives is always the last plan point's — regardless
        of ``--jobs`` or which worker finished first. That is what makes
        merged ``--metrics`` output byte-identical across job counts,
        and it matches what one serial registry would have recorded (up
        to gauge instantaneous values). Metric kinds are inferred from
        the snapshot shape. JSON round-trips turn histogram bucket
        bounds into strings; they are coerced back to ints here.
        """
        for name, data in snapshot.items():
            if isinstance(data, (int, float)) and not isinstance(data, bool):
                self.counter(name).inc(int(data))
            elif isinstance(data, dict) and "buckets" in data:
                bounds = sorted(int(b) for b in data["buckets"])
                histogram = self.histogram(name, bounds=bounds)
                if list(histogram.bounds) != bounds:
                    raise ValueError(
                        f"histogram {name!r} bucket bounds differ: "
                        f"{histogram.bounds} vs {tuple(bounds)}"
                    )
                incoming = {int(b): c for b, c in data["buckets"].items()}
                for i, bound in enumerate(histogram.bounds):
                    histogram.counts[i] += incoming[bound]
                histogram.counts[-1] += data["overflow"]
                histogram.total += data["count"]
                histogram.sum += data["sum"]
            elif isinstance(data, dict) and "value" in data:
                gauge = self.gauge(name)
                gauge.value = data["value"]
                gauge.max_value = max(gauge.max_value, data["max"])
            else:
                raise ValueError(
                    f"unrecognized snapshot shape for metric {name!r}: {data!r}"
                )

    def table(self, title: str = "[metrics]") -> str:
        """A plain-text dump: one line per metric, sorted by name."""
        lines = [title]
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                lines.append(f"  {name} = {metric.value:,}")
            elif isinstance(metric, Gauge):
                lines.append(
                    f"  {name} = {metric.value:,.6g} (max {metric.max_value:,.6g})"
                )
            else:
                if metric.total:
                    detail = (
                        f"count {metric.total:,}, mean {metric.mean:,.0f}, "
                        f"p50 {metric.percentile(50):,.0f}, "
                        f"p95 {metric.percentile(95):,.0f}, "
                        f"p99 {metric.percentile(99):,.0f}"
                    )
                else:
                    detail = "count 0"
                lines.append(f"  {name} = histogram({detail})")
        return "\n".join(lines)
