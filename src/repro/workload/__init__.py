"""fio-like workload engine: jobs, patterns, pacing, metrics, runners."""

from .job import IoKind, JobSpec, Pattern
from .patterns import (
    BACKOFF,
    Backoff,
    RandomReadPattern,
    RangePattern,
    ZoneAppendCursor,
    ZoneWriteCursor,
)
from .ratelimit import RatePacer
from .runner import JobResult, JobRunner
from .stats import LatencyStats, TimeSeries

__all__ = [
    "BACKOFF",
    "Backoff",
    "IoKind",
    "JobResult",
    "JobRunner",
    "JobSpec",
    "LatencyStats",
    "Pattern",
    "RandomReadPattern",
    "RangePattern",
    "RatePacer",
    "TimeSeries",
    "ZoneAppendCursor",
    "ZoneWriteCursor",
]
