"""The experiment execution engine: plan → (cache | workers) → assemble.

Every experiment decomposes into independent, deterministically-seeded
sweep points (:mod:`repro.core.experiments.points`). The engine

1. expands the requested experiments into one task per point,
2. serves finished points from the content-addressed
   :class:`~repro.exec.cache.ResultCache` (which doubles as a
   checkpoint: an interrupted sweep resumes from disk),
3. fans the remaining points out over a
   :class:`~repro.exec.pool.WorkerPool` (``--jobs N``) with a per-point
   timeout and crash recovery, or runs them inline when ``jobs == 1``
   (the only mode a traced run may use: a trace is one in-process
   timeline, so it can neither be merged across workers nor replayed
   from the cache),
4. reassembles payloads **in plan order** — never completion order — so
   parallel output is byte-identical to the serial run, and
5. merges per-point :class:`MetricsRegistry` snapshots back into the
   caller's registry, again in plan order.

Payloads are canonicalized through a JSON round-trip before assembly,
so a value has exactly one form whether it came from this process, a
worker, or a cache file (floats round-trip exactly; tuples become
lists, which :func:`~repro.core.experiments.points.assemble` restores).
Metrics snapshots take the same round trip. Telemetry segments do not:
samplers build them from JSON-native values, and
:func:`check_segments` enforces that instead.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..core.experiments.common import ExperimentConfig
from ..core.experiments.points import (
    assemble,
    experiment_plans,
    point_label,
)
from ..core.results import ExperimentResult, render_table
from ..faults import resolve
from .cache import ResultCache
from .pool import DEFAULT_POINT_TIMEOUT_S, WorkerPool, run_point

__all__ = [
    "ExecutionError",
    "ExecutionReport",
    "PointRecord",
    "canonical_payload",
    "check_segments",
    "config_fields",
    "execute_experiments",
]


def config_fields(config: ExperimentConfig) -> dict[str, Any]:
    """The scalar config fields (drops the tracer/metrics/telemetry
    hooks; the telemetry *interval* is a scalar and stays in)."""
    return {
        f.name: getattr(config, f.name)
        for f in dataclasses.fields(config)
        if f.name not in ("tracer", "metrics", "telemetry")
    }


def _json_scalar(obj: Any):
    item = getattr(obj, "item", None)  # numpy scalars → Python scalars
    if callable(item):
        return item()
    raise TypeError(f"payload value {obj!r} is not JSON-serializable")


def canonical_payload(payload: Any) -> Any:
    """The unique JSON-round-tripped form of a point payload."""
    return json.loads(json.dumps(payload, default=_json_scalar))


#: Types a telemetry segment's lists may hold: JSON numbers and null,
#: which a JSON round trip returns as they are. (It would turn a numpy
#: scalar into a Python number; a segment that skips the round trip
#: must not hold one.)
_SEGMENT_VALUE_TYPES = frozenset({int, float, type(None)})


def check_segments(segments: list) -> list:
    """Return telemetry ``segments`` after checking that each is already
    in its canonical JSON form, so it needs no round trip.

    Samplers build segments from ints, floats and ``None`` only; a value
    of any other type (a numpy scalar from a level hook, say) raises
    ``TypeError`` naming its column.
    """
    for segment in segments:
        for key, value in segment.items():
            if type(value) is dict:  # the columns
                for name, column in value.items():
                    _check_list(column, f"column {name!r}", segment)
            elif type(value) is list:
                _check_list(value, f"field {key!r}", segment)
            elif type(value) not in (str, int):
                raise TypeError(f"telemetry segment of {segment['device']}: "
                                f"field {key!r} is {value!r}, not a str or int")
    return segments


def _check_list(values: Any, what: str, segment: dict) -> None:
    if type(values) is not list:
        raise TypeError(f"telemetry segment of {segment['device']}: {what} "
                        f"is a {type(values).__name__}, not a list")
    odd = set(map(type, values)) - _SEGMENT_VALUE_TYPES
    if odd:
        names = ", ".join(sorted(t.__name__ for t in odd))
        raise TypeError(f"telemetry segment of {segment['device']}: {what} "
                        f"holds {names}; segments hold only int, float "
                        f"and None")


@dataclass
class PointRecord:
    """One point's execution record (for reports and ``profile --points``)."""

    experiment_id: str
    label: str
    source: str  # "run" | "cache" | "failed"
    elapsed_s: float
    attempts: int = 1
    error: Optional[str] = None
    #: Simulated events dispatched while computing this point (0 when
    #: the stat predates the field, e.g. old cache entries).
    events: int = 0


@dataclass
class ExecutionReport:
    """What the engine did: per-point records plus run totals."""

    jobs: int
    points: list[PointRecord] = field(default_factory=list)
    wall_s: float = 0.0
    cache_hits: int = 0
    executed: int = 0
    failed: int = 0
    #: Merged time-resolved telemetry (experiment id → segment list in
    #: plan order), populated only when the config carries a sampling
    #: interval. Segments are canonical JSON values — deterministic at
    #: any ``--jobs`` because the merge below runs in plan order and the
    #: samplers never perturb the simulation.
    telemetry: dict[str, list] = field(default_factory=dict)

    @property
    def events(self) -> int:
        """Simulated events dispatched by the freshly-executed points."""
        return sum(r.events for r in self.points if r.source == "run")

    def summary(self) -> str:
        total = len(self.points)
        parts = [
            f"{total} points: {self.executed} executed,"
            f" {self.cache_hits} cached",
        ]
        if self.failed:
            parts.append(f"{self.failed} FAILED")
        parts.append(f"{self.wall_s:.1f}s wall, jobs={self.jobs}")
        return "[exec] " + ", ".join(parts)

    def table(self) -> str:
        """Per-point wall-clock table (slowest first)."""
        rows = [
            {
                "experiment": record.experiment_id,
                "point": record.label,
                "source": record.source,
                "attempts": record.attempts,
                "wall_s": record.elapsed_s,
                "events": record.events,
                "kev_per_s": (
                    record.events / record.elapsed_s / 1e3
                    if record.events and record.elapsed_s > 0 else 0.0
                ),
            }
            for record in sorted(
                self.points, key=lambda r: r.elapsed_s, reverse=True
            )
        ]
        return render_table(
            ["experiment", "point", "source", "attempts", "wall_s",
             "events", "kev_per_s"],
            rows,
            title=f"[exec] per-point wall clock ({self.summary()[7:]})",
        )


class ExecutionError(RuntimeError):
    """Raised when points still fail after their retry."""

    def __init__(self, failures: list[PointRecord], report: ExecutionReport):
        self.failures = failures
        self.report = report
        lines = [f"{len(failures)} experiment point(s) failed:"]
        for record in failures:
            first_line = (record.error or "").strip().splitlines()
            detail = first_line[-1] if first_line else "unknown error"
            lines.append(
                f"  {record.experiment_id}:{record.label} "
                f"({record.attempts} attempts): {detail}"
            )
        super().__init__("\n".join(lines))


@dataclass
class _Point:
    """Internal bookkeeping for one sweep point."""

    task_id: int
    experiment_id: str
    index: int
    params: dict
    label: str
    cache_key: Optional[str] = None


def _run_point_inline(plans, task: dict, config: ExperimentConfig) -> dict:
    """Execute one task in-process (the ``jobs == 1`` path)."""
    try:
        reply = run_point(
            plans[task["experiment_id"]], config, task["params"],
            task["collect_metrics"],
        )
    except Exception:
        import traceback

        return {
            "task_id": task["task_id"],
            "ok": False,
            "error": traceback.format_exc(),
            "attempts": 1,
        }
    reply.update(task_id=task["task_id"], ok=True, attempts=1)
    return reply


def execute_experiments(
    ids: Optional[list[str]] = None,
    config: Optional[ExperimentConfig] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    timeout_s: float = DEFAULT_POINT_TIMEOUT_S,
    progress: Optional[Callable[[str], None]] = None,
) -> tuple[dict[str, ExperimentResult], ExecutionReport]:
    """Run experiments through the point engine.

    Returns ``(results, report)`` where ``results`` maps experiment id →
    :class:`ExperimentResult` in request order. Raises
    :class:`ExecutionError` if any point still fails after its retry.

    A config carrying a tracer runs every point inline, in plan order,
    into that one tracer; it needs ``jobs == 1`` and no ``cache_dir``.
    """
    config = config or ExperimentConfig()
    if config.tracer is not None and (jobs != 1 or cache_dir is not None):
        raise ValueError(
            "command tracing records one in-process timeline: it cannot be "
            "merged across workers or replayed from the cache; run traced "
            "experiments serially (jobs=1, cache_dir=None)"
        )
    if config.telemetry is not None:
        raise ValueError(
            "pass telemetry_interval_ns, not a live collector: the engine "
            "creates one collector per sweep point so segments merge in "
            "plan order"
        )
    # Ids resolve against the auxiliary-inclusive registry (so "sec4"
    # runs through the same machinery), but the default id list is the
    # main suite only.
    plans = experiment_plans(auxiliary=True)
    ids = list(ids) if ids else list(experiment_plans())
    unknown = [i for i in ids if i not in plans]
    if unknown:
        raise KeyError(
            f"unknown experiment(s) {unknown}; choose from {list(plans)}"
        )
    say = progress if progress is not None else (lambda message: None)
    collect_metrics = config.metrics is not None
    cfg_fields = config_fields(config)
    cache = ResultCache(cache_dir) if cache_dir else None
    if cache is not None:
        # Key on the plan the spec resolves to, not the spec string, so
        # an edited JSON fault profile misses the cache.
        plan = resolve(config.faults)
        key_fields = dict(cfg_fields,
                          faults=plan.to_dict() if plan is not None else None)

    started = time.monotonic()
    report = ExecutionReport(jobs=jobs)

    # 1. Expand every experiment into globally-indexed points.
    points: list[_Point] = []
    payloads: dict[str, list] = {}
    for exp_id in ids:
        params_list = [canonical_payload(p) for p in plans[exp_id].plan(config)]
        payloads[exp_id] = [None] * len(params_list)
        for index, params in enumerate(params_list):
            points.append(_Point(
                task_id=len(points), experiment_id=exp_id, index=index,
                params=params, label=point_label(params),
            ))

    # 2. Serve finished points from the cache.
    records: dict[int, PointRecord] = {}
    snapshots: dict[int, Optional[dict]] = {}
    segments: dict[int, Optional[list]] = {}
    misses: list[_Point] = []
    for point in points:
        if cache is not None:
            point.cache_key = cache.key(
                point.experiment_id, point.params, key_fields, collect_metrics
            )
            entry = cache.load(point.cache_key)
            if entry is not None:
                payloads[point.experiment_id][point.index] = entry["payload"]
                snapshots[point.task_id] = entry.get("metrics")
                segments[point.task_id] = entry.get("telemetry")
                records[point.task_id] = PointRecord(
                    point.experiment_id, point.label, "cache",
                    entry.get("elapsed_s", 0.0),
                    events=int(entry.get("events", 0)),
                )
                report.cache_hits += 1
                continue
        misses.append(point)

    total = len(points)
    say(f"[exec] {total} points across {len(ids)} experiment(s): "
        f"{report.cache_hits} cached, {len(misses)} to run "
        f"(jobs={jobs})")

    # 3. Run the cache misses — fanned out or inline — dispatched in
    #    plan order. Results are assembled in plan order too, so
    #    scheduling never changes output.
    tasks = [
        {
            "task_id": point.task_id,
            "experiment_id": point.experiment_id,
            "params": point.params,
            "config": cfg_fields,
            "collect_metrics": collect_metrics,
        }
        for point in misses
    ]
    by_id = {point.task_id: point for point in misses}
    done = [report.cache_hits]

    def on_reply(task: dict, reply: dict) -> None:
        point = by_id[task["task_id"]]
        done[0] += 1
        if reply["ok"]:
            say(f"[exec] {done[0]}/{total} {point.experiment_id}:"
                f"{point.label} ({reply['elapsed_s']:.2f}s)")
        else:
            say(f"[exec] {done[0]}/{total} {point.experiment_id}:"
                f"{point.label} FAILED after {reply['attempts']} attempt(s)")

    def on_progress(task: dict, message: dict) -> None:
        point = by_id[task["task_id"]]
        name = f"{point.experiment_id}:{point.label}"
        if message.get("progress") == "started":
            say(f"[exec] {name} started (pid {message.get('pid')})")
        else:
            elapsed = message.get("elapsed_s") or 0.0
            events = int(message.get("events") or 0)
            rate = events / elapsed / 1e3 if elapsed > 0 else 0.0
            say(f"[exec] {name} running: {events:,} events in "
                f"{elapsed:.0f}s ({rate:.0f} kev/s, pid {message.get('pid')})")

    if jobs > 1 and len(tasks) > 1:
        pool = WorkerPool(jobs, timeout_s=timeout_s)
        replies = pool.run(tasks, on_reply=on_reply, on_progress=on_progress)
    else:
        replies = {}
        for task in tasks:
            reply = _run_point_inline(plans, task, config)
            replies[task["task_id"]] = reply
            on_reply(task, reply)

    # 4. Fold replies back in plan order; persist fresh points.
    failures: list[PointRecord] = []
    for point in misses:
        reply = replies[point.task_id]
        if not reply["ok"]:
            record = PointRecord(
                point.experiment_id, point.label, "failed", 0.0,
                attempts=reply.get("attempts", 1), error=reply.get("error"),
            )
            records[point.task_id] = record
            failures.append(record)
            report.failed += 1
            continue
        payload = canonical_payload(reply["payload"])
        metrics_snapshot = reply.get("metrics")
        if metrics_snapshot is not None:
            metrics_snapshot = canonical_payload(metrics_snapshot)
        point_segments = reply.get("telemetry")
        if point_segments is not None:
            point_segments = check_segments(point_segments)
        payloads[point.experiment_id][point.index] = payload
        snapshots[point.task_id] = metrics_snapshot
        segments[point.task_id] = point_segments
        records[point.task_id] = PointRecord(
            point.experiment_id, point.label, "run", reply["elapsed_s"],
            attempts=reply.get("attempts", 1),
            events=int(reply.get("events", 0)),
        )
        report.executed += 1
        if cache is not None:
            cache.store(point.cache_key, {
                "experiment_id": point.experiment_id,
                "label": point.label,
                "payload": payload,
                "metrics": metrics_snapshot,
                "telemetry": point_segments,
                "elapsed_s": reply["elapsed_s"],
                "events": int(reply.get("events", 0)),
            })

    report.points = [records[point.task_id] for point in points]
    report.wall_s = time.monotonic() - started
    if failures:
        raise ExecutionError(failures, report)

    # 5. Merge metrics snapshots in plan order, then assemble tables.
    if collect_metrics:
        for point in points:
            snapshot = snapshots.get(point.task_id)
            if snapshot:
                config.metrics.merge_snapshot(snapshot)
    if config.telemetry_interval_ns:
        # Same plan-order discipline as the metrics merge: the combined
        # timeseries is independent of worker scheduling and --jobs.
        for point in points:
            for segment in segments.get(point.task_id) or []:
                segment = dict(segment)
                segment["experiment_id"] = point.experiment_id
                segment["point"] = point.label
                report.telemetry.setdefault(
                    point.experiment_id, []
                ).append(segment)
    results = {
        exp_id: assemble(plans[exp_id], config, payloads[exp_id])
        for exp_id in ids
    }
    say(report.summary())
    return results, report
