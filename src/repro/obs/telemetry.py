"""Time-resolved telemetry: windowed metric timeseries per sweep point.

The aggregate :class:`~repro.obs.metrics.MetricsRegistry` answers "what
happened over the whole run"; this module answers "when". A
:class:`TelemetrySampler` rides the simulator's tick hook
(:meth:`repro.sim.engine.Simulator.add_tick_hook`) and, every
``interval_ns`` of *simulated* time, snapshots the device's registry plus
a few model internals the registry does not carry (per-zone-state census,
FTL free space, GC occupancy, per-die busy time). Each sample is a
*windowed delta*: counters report the increase since the previous row,
latency histograms report the count and interpolated p50/p95/p99 of only
the observations that landed in the window, gauges report their
instantaneous level, and per-die busy nanoseconds become a busy
*fraction* of the window. The result is a compact columnar segment —
parallel arrays keyed by metric name — cheap to JSON-encode and merge.

Determinism contract (the whole point of the design):

* the sampler installs **zero simulation events** — it observes clock
  advances from inside the dispatch loop and never touches the RNG, the
  heap, or the ready deque, so enabling telemetry cannot perturb the
  simulated execution;
* window boundaries are pure integer arithmetic on the simulated clock,
  so the same point produces bit-identical segments in any worker
  process at any ``--jobs``;
* empty windows produce **no row** — a row's deltas cover the whole
  span since the previous row (``spans`` records how many intervals
  that is), which keeps idle stretches free instead of materializing
  runs of zeros.
"""

from __future__ import annotations

from typing import Any, Optional

from .metrics import Counter, Gauge, Histogram, bucket_percentile

__all__ = ["TelemetryCollector", "TelemetrySampler", "DEFAULT_INTERVAL_US"]

#: Default sampling interval (simulated microseconds) for ``--telemetry``.
DEFAULT_INTERVAL_US = 100.0

#: Percentiles computed per latency histogram per window.
_PERCENTILES = (50, 95, 99)


class TelemetrySampler:
    """Windowed columnar sampler for one device.

    Attached by :meth:`TelemetryCollector.attach` from the device
    constructor; never instantiate directly. A clock advance costs one
    integer comparison (:meth:`_on_advance`). The registry is bound into
    a plan, extended only when it grows. A row appends to the gauge and
    level columns but records counter deltas, histogram windows and busy
    fractions only as *entries* where they moved, which :meth:`segment`
    fills into default-valued columns (DESIGN.md §13.4).

    Padding is pinned, as segments are digested output: a column first
    seen at row *k* reads ``0`` before it (``None`` for percentiles).
    Only level key sets shrink: the ZNS census names only states some
    zone is in, so ``zones.<state>`` reads ``0`` before that state is
    first seen and ``None`` in later rows where no zone is in it.
    """

    __slots__ = (
        "interval_ns", "device", "ordinal", "_closed", "_next", "_rows",
        "_windows", "_spans", "_cols", "_defaults", "_entries", "_bound",
        "_counters", "_counter_prev", "_gauges", "_hists",
        "_levels", "_busy_names", "_busy_prev", "_finalized",
    )

    def __init__(self, interval_ns: int, device: Any, ordinal: int):
        self.interval_ns = interval_ns
        self.device = device
        self.ordinal = ordinal
        self._closed = 0          # completed windows already sampled
        self._next = interval_ns  # sim time at which the next row closes
        self._rows = 0
        self._windows: list[int] = []
        self._spans: list[int] = []
        self._cols: dict[str, list] = {}     # gauge and level columns
        self._defaults: dict[str, Any] = {}  # entry columns' defaults
        self._entries: list[tuple[str, int, Any]] = []  # (column, row, value)
        self._bound = 0                      # registry metrics planned
        self._counters: list[Counter] = []
        self._counter_prev: list[int] = []
        self._gauges: list[tuple[Gauge, list]] = []
        self._hists: list[list] = []  # [metric, column names, counts, total]
        self._levels: dict[str, list] = {}
        self._busy_names: Optional[list[str]] = None
        self._busy_prev: list[int] = []
        self._finalized = False

    # ------------------------------------------------------------- sampling
    def _on_advance(self, now: int) -> None:
        """Tick hook: close every window the clock has fully passed.

        Runs inside the dispatch loop — must stay passive (no events,
        no RNG; see :meth:`Simulator.add_tick_hook`).
        """
        if now < self._next:
            return
        completed = now // self.interval_ns
        self._sample(completed, completed * self.interval_ns)
        self._next = (completed + 1) * self.interval_ns

    def _bind(self, metrics: list) -> None:
        """Plan the metrics registered since the last row (registries
        only grow, in registration order)."""
        for metric in metrics[self._bound:]:
            name = metric.name
            cls = type(metric)
            if cls is Counter:
                self._counters.append(metric)
                self._counter_prev.append(0)
                self._defaults[name] = 0
            elif cls is Gauge and not name.startswith("nand.die"):
                # (Per-die busy gauges repeat the busy fractions below.)
                col = self._cols[name] = [0] * self._rows
                self._gauges.append((metric, col))
            elif cls is Histogram:
                names = [f"{name}.count"]
                names += (f"{name}.p{p}" for p in _PERCENTILES)
                self._defaults.update(zip(names, (0, None, None, None)))
                self._hists.append([metric, names, [0] * len(metric.counts), 0])
        self._bound = len(metrics)

    def _sample(self, completed: int, end_ns: int) -> None:
        """Emit one row covering ``(last row .. completed]`` windows."""
        span = completed - self._closed
        elapsed = end_ns - self._closed * self.interval_ns
        if elapsed <= 0:
            elapsed = self.interval_ns
        device = self.device
        if len(device.metrics) != self._bound:
            self._bind(list(device.metrics))
        row = self._rows
        entries = self._entries

        values = [metric.value for metric in self._counters]
        if values != self._counter_prev:
            for metric, value, prev in zip(self._counters, values,
                                           self._counter_prev):
                if value != prev:
                    entries.append((metric.name, row, value - prev))
            self._counter_prev = values
        for metric, col in self._gauges:
            col.append(metric.value)
        for hist in self._hists:
            metric, names, pcounts, ptotal = hist
            total = metric.total
            if total != ptotal:
                counts = metric.counts
                dtotal = total - ptotal
                dcounts = [c - p for c, p in zip(counts, pcounts)]
                entries.append((names[0], row, dtotal))
                for name, p in zip(names[1:], _PERCENTILES):
                    entries.append((name, row, round(bucket_percentile(
                        metric.bounds, dcounts, dtotal, p), 1)))
                hist[2] = list(counts)
                hist[3] = total

        levels = device._telemetry_levels()
        for name, value in levels.items():
            col = self._levels.get(name)
            if col is None:
                col = self._levels[name] = self._cols[name] = [0] * row
            col.append(value)
        if len(levels) < len(self._levels):
            for col in self._levels.values():
                if len(col) == row:
                    col.append(None)

        keys, totals = device._telemetry_cumulative()
        if self._busy_names is None:
            self._busy_names = [key.removesuffix("_ns") + "_frac"
                                for key in keys]
            self._defaults.update(dict.fromkeys(self._busy_names, 0.0))
            self._busy_prev = [0] * len(keys)
        if totals != self._busy_prev:
            for name, total, prev in zip(self._busy_names, totals,
                                         self._busy_prev):
                if total != prev:
                    entries.append(
                        (name, row, round((total - prev) / elapsed, 6)))
            self._busy_prev = list(totals)

        self._rows = row + 1
        self._windows.append(completed)
        self._spans.append(span)
        self._closed = completed

    # ------------------------------------------------------------- finalize
    def segment(self) -> dict[str, Any]:
        """Close the partial final window and return the columnar segment.

        The final row always exists (it carries the end-of-run census
        and any activity after the last boundary); all-zero columns are
        dropped — absence means "never moved".
        """
        if not self._finalized:
            self._finalized = True
            now = int(self.device.sim.now)
            self._sample(self._closed + 1, now)
        cols = dict(self._cols)
        for name, default in self._defaults.items():
            cols[name] = [default] * self._rows
        for name, row, value in self._entries:
            cols[name][row] = value
        columns = {name: cols[name] for name in sorted(cols) if any(cols[name])}
        return {
            "device": f"{self.device.kind}:{self.device.profile.name}",
            "ordinal": self.ordinal,
            "interval_ns": self.interval_ns,
            "rows": self._rows,
            "end_ns": int(self.device.sim.now),
            "windows": self._windows,
            "spans": self._spans,
            "columns": columns,
        }


class TelemetryCollector:
    """Per-sweep-point handle tying device samplers to the exec engine.

    One collector per point; each device built while it is on the config
    calls :meth:`attach` (from ``DeviceCore.__init__``) and gets its own
    sampler wired to that device's simulator. :meth:`drain` returns the
    finalized segments in attach order — deterministic because device
    construction order within a point is.
    """

    __slots__ = ("interval_ns", "_samplers")

    def __init__(self, interval_ns: int):
        interval_ns = int(interval_ns)
        if interval_ns <= 0:
            raise ValueError(f"telemetry interval must be > 0 ns, got {interval_ns}")
        self.interval_ns = interval_ns
        self._samplers: list[TelemetrySampler] = []

    def attach(self, device: Any) -> TelemetrySampler:
        sampler = TelemetrySampler(self.interval_ns, device,
                                   ordinal=len(self._samplers))
        self._samplers.append(sampler)
        device.sim.add_tick_hook(sampler._on_advance)
        return sampler

    def drain(self) -> list[dict[str, Any]]:
        return [sampler.segment() for sampler in self._samplers]
