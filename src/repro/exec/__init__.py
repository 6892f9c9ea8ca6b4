"""Parallel, cached execution of the paper experiments.

``repro.exec`` decomposes every experiment into its independent sweep
points (see :mod:`repro.core.experiments.points`), fans them out over a
crash-tolerant process pool, serves previously-computed points from a
content-addressed cache, and reassembles the tables in plan order —
byte-identical output at any job count, a fraction of the wall clock.
It is the only way an experiment runs: serial, parallel, cached and
traced runs all go through it.

Entry points: :func:`execute_experiments` (library),
``python -m repro run --jobs N`` (CLI).
"""

from .cache import CACHE_SCHEMA, ResultCache, code_version
from .engine import (
    ExecutionError,
    ExecutionReport,
    PointRecord,
    canonical_payload,
    config_fields,
    execute_experiments,
)
from .pool import DEFAULT_POINT_TIMEOUT_S, WorkerPool

__all__ = [
    "CACHE_SCHEMA",
    "DEFAULT_POINT_TIMEOUT_S",
    "ExecutionError",
    "ExecutionReport",
    "PointRecord",
    "ResultCache",
    "WorkerPool",
    "canonical_payload",
    "code_version",
    "config_fields",
    "execute_experiments",
]
