"""``repro bench``: wall-clock benchmarking of the experiment suite.

Runs experiments through the execution engine and distills the
:class:`~repro.exec.engine.ExecutionReport` into a small JSON document
(``BENCH_sim.json`` by convention) with per-experiment wall-clock,
simulated-event throughput, and the cache hit rate:

* ``events_per_s`` — dispatched simulation events per second of point
  compute time. This is the engine's figure of merit: it is insensitive
  to how many points a sweep has and (unlike wall seconds) comparable
  across runs that executed different subsets.
* ``wall_s`` per experiment is *busy* seconds — the sum of per-point
  compute — not elapsed time, so the numbers mean the same thing at any
  ``--jobs`` count.

Schema 2 adds rep-to-rep variance: ``--reps N`` runs the whole sweep N
times and records the sample stdev of each experiment's busy seconds
and events/sec (``wall_s_stdev`` / ``events_per_s_stdev``, 0.0 when
``reps == 1``), plus the stdev of the aggregate rate. Repetitions
always run uncached — a rep served from the cache would carry no
timing signal — so ``reps > 1`` disables any ``--cache`` directory.
Simulated event *counts* are deterministic, so only the wall-clock
side varies across reps; that variance history is what per-experiment
CI gates need to pick thresholds that outrun runner noise.

A committed benchmark file doubles as a regression gate:
:func:`compare` checks a fresh run against the baseline both in
aggregate (fractional allowance) and per experiment, where the
threshold is sized from the baseline's recorded stdevs
(``mean − k·stdev``) so a stable experiment gets a tight gate and a
noisy one a loose gate — instead of one margin wide enough for the
noisiest member (CI runs this against the committed
``benchmarks/BENCH_baseline.json``).

Schema 3 adds pure-engine microbenchmarks under the ``engine`` key:
tiny synthetic simulations that isolate the event-core paths the
experiment sweeps lean on (timeout churn through the heap, FIFO
resource handoffs, process spawn/join, and container put/get
backpressure). Their events/sec figures are **informational** — CI
renders them alongside the sweep numbers but :func:`compare` does not
gate on them, because a sub-second microbench has far more runner
noise than the multi-second sweeps the gates protect.
"""

from __future__ import annotations

import json
import platform
import sys
from time import perf_counter
from typing import Any, Callable, Optional

from ..core.experiments.common import ExperimentConfig
from ..sim.engine import Simulator
from ..sim.resources import Container, Resource
from .engine import ExecutionReport, execute_experiments

__all__ = ["BENCH_SCHEMA", "QUICK_IDS", "run_bench", "run_engine_microbench",
           "compare", "render", "load"]

#: Bump when the BENCH_sim.json layout changes.
BENCH_SCHEMA = 3

#: The ``--quick`` subset: the cheap latency/throughput sweeps that
#: exercise every stack (SPDK, io_uring ± scheduler) and every opcode
#: family without the minutes-long interference timelines.
QUICK_IDS = ["fig2a", "fig3", "fig4a"]


def _experiment_rows(report: ExecutionReport) -> dict[str, dict[str, Any]]:
    rows: dict[str, dict[str, Any]] = {}
    for record in report.points:
        row = rows.setdefault(record.experiment_id, {
            "points": 0, "cache_hits": 0, "wall_s": 0.0, "events": 0,
        })
        row["points"] += 1
        if record.source == "cache":
            row["cache_hits"] += 1
        else:
            row["wall_s"] += record.elapsed_s
            row["events"] += record.events
    for row in rows.values():
        row["wall_s"] = round(row["wall_s"], 3)
        row["events_per_s"] = round(
            row["events"] / row["wall_s"] if row["wall_s"] > 0 else 0.0, 1
        )
    return rows


def _stdev(values: list[float]) -> float:
    """Sample standard deviation; 0.0 below two samples."""
    if len(values) < 2:
        return 0.0
    mean = sum(values) / len(values)
    return (sum((v - mean) ** 2 for v in values) / (len(values) - 1)) ** 0.5


# -- engine microbenchmarks ----------------------------------------------
#
# Each builder returns a fresh Simulator pre-loaded with a synthetic
# workload; the driver times only the run. Workloads are deterministic
# (no RNG), so the event counts are fixed and only wall time varies.

def _build_timeout_churn() -> Simulator:
    """Many processes cycling short timeouts: the heap's steady state."""
    sim = Simulator()

    def worker(delay: int):
        timeout = sim.timeout
        for _ in range(4000):
            yield timeout(delay)

    for i in range(64):
        sim.process(worker(1 + i % 7))
    return sim


def _build_wakeup_batch() -> Simulator:
    """A contended single-slot Resource at one priority: grant-on-release
    handoff chains (the controller-wakeup path of DESIGN.md §15)."""
    sim = Simulator()
    ctrl = Resource(sim, name="ctrl")

    def worker():
        timeout = sim.timeout
        for _ in range(1500):
            req = ctrl.request()
            yield req
            yield timeout(1)
            ctrl.release(req)

    for _ in range(64):
        sim.process(worker())
    return sim


def _build_spawn_join() -> Simulator:
    """Process spawn + all_of join: the fan-out/fan-in of striped I/O."""
    sim = Simulator()

    def child():
        yield sim.timeout(1)

    def parent():
        for _ in range(150):
            children = [sim.process(child()) for _ in range(128)]
            yield sim.all_of(children)

    sim.process(parent())
    return sim


def _build_container_putget() -> Simulator:
    """Producer/consumer through a small Container: put/get blocking and
    wakeup (the write-buffer backpressure path)."""
    sim = Simulator()
    box = Container(sim, capacity=8)

    def producer():
        timeout = sim.timeout
        for _ in range(25_000):
            yield box.put(1)
            yield timeout(1)

    def consumer():
        timeout = sim.timeout
        for _ in range(25_000):
            yield box.get(1)
            yield timeout(2)

    sim.process(producer())
    sim.process(consumer())
    return sim


ENGINE_MICROBENCHES: tuple[tuple[str, Callable[[], Simulator]], ...] = (
    ("timeout_churn", _build_timeout_churn),
    ("wakeup_batch", _build_wakeup_batch),
    ("spawn_join", _build_spawn_join),
    ("container_putget", _build_container_putget),
)


def run_engine_microbench(reps: int = 1) -> dict[str, dict[str, Any]]:
    """Run the pure-engine microbenchmarks; one row per bench.

    Row shape mirrors the per-experiment rows (events are deterministic;
    timing figures are means across ``reps`` with a sample stdev).
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    rows: dict[str, dict[str, Any]] = {}
    for name, build in ENGINE_MICROBENCHES:
        events = 0
        walls: list[float] = []
        rates: list[float] = []
        for _ in range(reps):
            sim = build()
            started = perf_counter()
            sim.run()
            elapsed = perf_counter() - started
            events = sim.events_processed
            walls.append(elapsed)
            rates.append(events / elapsed if elapsed > 0 else 0.0)
        rows[name] = {
            "events": events,
            "wall_s": round(sum(walls) / len(walls), 3),
            "wall_s_stdev": round(_stdev(walls), 3),
            "events_per_s": round(sum(rates) / len(rates), 1),
            "events_per_s_stdev": round(_stdev(rates), 1),
        }
    return rows


def run_bench(
    ids: Optional[list[str]] = None,
    config: Optional[ExperimentConfig] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    reps: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> dict[str, Any]:
    """Benchmark the given experiments; returns the BENCH document.

    ``reps > 1`` repeats the whole sweep and reports the mean and the
    rep-to-rep sample stdev of every timing figure. Repetitions force
    ``cache_dir=None``: a cache-served rep measures nothing.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    say = progress if progress is not None else (lambda message: None)
    if reps > 1 and cache_dir is not None:
        say("[bench] --reps > 1 disables the cache "
            "(every rep must recompute to carry timing signal)")
        cache_dir = None
    reports = []
    for rep in range(reps):
        if reps > 1:
            say(f"[bench] rep {rep + 1}/{reps}")
        _results, report = execute_experiments(
            ids, config, jobs=jobs, cache_dir=cache_dir, progress=progress,
        )
        reports.append(report)

    # Per-experiment rows: timing figures are means across reps with a
    # rep-to-rep stdev; structural figures (points, events) are
    # deterministic and taken from the first rep.
    per_rep = [_experiment_rows(report) for report in reports]
    experiments: dict[str, dict[str, Any]] = {}
    for exp_id, first in per_rep[0].items():
        walls = [rows[exp_id]["wall_s"] for rows in per_rep]
        rates = [rows[exp_id]["events_per_s"] for rows in per_rep]
        experiments[exp_id] = {
            "points": first["points"],
            "cache_hits": first["cache_hits"],
            "events": first["events"],
            "wall_s": round(sum(walls) / len(walls), 3),
            "wall_s_stdev": round(_stdev(walls), 3),
            "events_per_s": round(sum(rates) / len(rates), 1),
            "events_per_s_stdev": round(_stdev(rates), 1),
        }

    aggregate_rates = [report.events_per_s for report in reports]
    first = reports[0]
    engine = run_engine_microbench(reps)
    return {
        "schema": BENCH_SCHEMA,
        "python": platform.python_version(),
        "jobs": first.jobs,
        "reps": reps,
        "experiment_ids": sorted({r.experiment_id for r in first.points}),
        "points": len(first.points),
        "cache_hits": first.cache_hits,
        "cache_hit_rate": round(first.hit_rate, 4),
        "wall_s": round(sum(r.wall_s for r in reports) / reps, 3),
        "events": first.events,
        "events_per_s": round(sum(aggregate_rates) / reps, 1),
        "events_per_s_stdev": round(_stdev(aggregate_rates), 1),
        "experiments": experiments,
        "engine": engine,
    }


def compare(current: dict[str, Any], baseline: dict[str, Any],
            max_regression: float = 0.20,
            stdev_k: float = 6.0) -> list[str]:
    """Failure messages if ``current`` regressed past the baseline.

    Two gates:

    * the historical **aggregate** ``events_per_s`` gate (a drop of more
      than ``max_regression`` fails), kept as a safety net, and
    * a **per-experiment** gate sized from the baseline's schema-2
      rep-to-rep stdevs: experiment ``e`` fails when its rate falls
      below ``mean_e − max(stdev_k·stdev_e, max_regression·mean_e)``.
      The stdev term lets a noisy short experiment breathe while a long
      stable one gets a tight threshold; the fractional term is the
      floor for baselines recorded with ``reps == 1`` (stdev 0.0),
      where a pure stdev gate would fail on any jitter at all.

    Rates of zero on either side mean "no timing signal" (e.g. a 100%
    cache-hit run) and never fail; experiments absent from either
    document are skipped.
    """
    failures: list[str] = []
    base_rate = float(baseline.get("events_per_s") or 0.0)
    cur_rate = float(current.get("events_per_s") or 0.0)
    if base_rate > 0.0 and cur_rate > 0.0:
        floor = base_rate * (1.0 - max_regression)
        if cur_rate < floor:
            failures.append(
                f"events_per_s regressed: {cur_rate:.0f} < "
                f"{floor:.0f} (baseline {base_rate:.0f} "
                f"- {max_regression:.0%} allowance)"
            )
    base_rows = baseline.get("experiments") or {}
    cur_rows = current.get("experiments") or {}
    for exp_id in sorted(base_rows):
        row = cur_rows.get(exp_id)
        if row is None:
            continue
        base_exp = float(base_rows[exp_id].get("events_per_s") or 0.0)
        cur_exp = float(row.get("events_per_s") or 0.0)
        if base_exp <= 0.0 or cur_exp <= 0.0:
            continue
        stdev = float(base_rows[exp_id].get("events_per_s_stdev") or 0.0)
        allowance = max(stdev_k * stdev, base_exp * max_regression)
        floor = base_exp - allowance
        if cur_exp < floor:
            failures.append(
                f"{exp_id} events_per_s regressed: {cur_exp:.0f} < "
                f"{floor:.0f} (baseline {base_exp:.0f} - "
                f"max({stdev_k:g}×{stdev:.0f}, {max_regression:.0%}))"
            )
    return failures


def render(doc: dict[str, Any], baseline: Optional[dict[str, Any]] = None,
           file=sys.stdout) -> None:
    """Human-readable summary of a BENCH document (plus baseline deltas)."""
    reps = int(doc.get("reps", 1))
    line = (f"[bench] {doc['points']} points, jobs={doc['jobs']}, "
            f"wall {doc['wall_s']:.1f}s, "
            f"{doc['events']} events @ {doc['events_per_s']:.0f} ev/s")
    if reps > 1:
        line += (f" (±{doc.get('events_per_s_stdev', 0.0):.0f} "
                 f"over {reps} reps)")
    line += f", cache hit rate {doc['cache_hit_rate']:.0%}"
    print(line, file=file)
    base_rows = (baseline or {}).get("experiments", {})
    for exp_id, row in sorted(doc["experiments"].items()):
        line = (f"[bench]   {exp_id}: {row['points']} points, "
                f"{row['wall_s']:.2f}s busy, "
                f"{row['events_per_s']:.0f} ev/s")
        if reps > 1:
            line += f" (±{row.get('events_per_s_stdev', 0.0):.0f})"
        base = base_rows.get(exp_id, {})
        base_rate = float(base.get("events_per_s") or 0.0)
        if base_rate > 0.0 and row["events_per_s"] > 0.0:
            delta = row["events_per_s"] / base_rate - 1.0
            line += f" ({delta:+.0%} vs baseline)"
        print(line, file=file)
    engine_base = (baseline or {}).get("engine", {})
    for name, row in (doc.get("engine") or {}).items():
        line = (f"[bench]   engine/{name}: {row['events']} events, "
                f"{row['events_per_s']:.0f} ev/s")
        if reps > 1:
            line += f" (±{row.get('events_per_s_stdev', 0.0):.0f})"
        base_rate = float((engine_base.get(name) or {})
                          .get("events_per_s") or 0.0)
        if base_rate > 0.0 and row["events_per_s"] > 0.0:
            delta = row["events_per_s"] / base_rate - 1.0
            line += f" ({delta:+.0%} vs baseline, informational)"
        print(line, file=file)


def load(path: str) -> dict[str, Any]:
    """Read a BENCH document, rejecting other schemas."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path} has schema {doc.get('schema')!r}, expected {BENCH_SCHEMA}"
        )
    return doc
