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
from .trace import Trace, TraceRecord, TraceReplayer, synthetic_trace

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
    "Trace",
    "TraceRecord",
    "TraceReplayer",
    "synthetic_trace",
    "ZoneAppendCursor",
    "ZoneWriteCursor",
]
