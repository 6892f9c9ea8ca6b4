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
    a plan, extended only when it grows. A row stores the current gauge
    values and the device's level tuple as they are, and compares the
    counter values, histogram totals and per-die busy totals with the
    previous row's: only a row where one of them moved records counter
    deltas, histogram windows and busy fractions, as *entries* that
    :meth:`segment` fills into default-valued columns (DESIGN.md §13.4).

    Padding is pinned, as segments are digested output: a column first
    seen at row *k* reads ``0`` before it (``None`` for percentiles).
    A level value of ``None`` means "absent": the ZNS census reports
    only states some zone is in, so ``zones.<state>`` reads ``0`` before
    that state is first seen and ``None`` in later rows where no zone is
    in it.
    """

    __slots__ = (
        "interval_ns", "device", "ordinal", "_closed", "_next", "_windows",
        "_defaults", "_entries", "_bound",
        "_counters", "_counter_prev", "_hists", "_hist_metrics",
        "_hist_prev", "_gauges", "_gauge_breaks", "_gauge_values",
        "_level_values", "_busy_names", "_busy_prev", "_finalized",
    )

    def __init__(self, interval_ns: int, device: Any, ordinal: int):
        self.interval_ns = interval_ns
        self.device = device
        self.ordinal = ordinal
        self._closed = 0          # completed windows already sampled
        self._next = interval_ns  # sim time at which the next row closes
        self._windows: list[int] = []  # per row: the last window it closes
        self._defaults: dict[str, Any] = {}  # entry columns' defaults
        self._entries: list[tuple[str, int, Any]] = []  # (column, row, value)
        self._bound = 0                      # registry metrics planned
        self._counters: list[Counter] = []
        self._counter_prev: list[int] = []
        self._hists: list[tuple[Histogram, list[str], list[int]]] = []
        self._hist_metrics: list[Histogram] = []
        self._hist_prev: list[int] = []      # histogram totals
        self._gauges: list[Gauge] = []
        # Gauge values and level values, row after row, each flat: the
        # level count is fixed per device, the gauge count changes only
        # at a (row, offset, gauge count) break.
        self._gauge_breaks: list[tuple[int, int, int]] = []
        self._gauge_values: list = []
        self._level_values: list = []
        self._busy_names: list[str] = []
        self._busy_prev: Optional[list[int]] = None
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
                self._gauges.append(metric)
            elif cls is Histogram:
                names = [f"{name}.count"]
                names += (f"{name}.p{p}" for p in _PERCENTILES)
                self._defaults.update(zip(names, (0, None, None, None)))
                self._hists.append((metric, names, [0] * len(metric.counts)))
                self._hist_metrics.append(metric)
                self._hist_prev.append(0)
        self._bound = len(metrics)
        breaks = self._gauge_breaks
        if len(self._gauges) != (breaks[-1][2] if breaks else 0):
            breaks.append((len(self._windows), len(self._gauge_values),
                           len(self._gauges)))

    def _sample(self, completed: int, end_ns: int) -> None:
        """Emit one row covering ``(last row .. completed]`` windows."""
        device = self.device
        if len(device.metrics) != self._bound:
            self._bind(list(device.metrics))
        values = [metric.value for metric in self._counters]
        totals = [metric.total for metric in self._hist_metrics]
        busy = device._telemetry_cumulative()[1]
        if (values != self._counter_prev or totals != self._hist_prev
                or busy != self._busy_prev):
            self._record_moves(values, totals, busy, end_ns)
        self._gauge_values += [metric.value for metric in self._gauges]
        self._level_values += device._telemetry_levels()
        self._windows.append(completed)
        self._closed = completed

    def _record_moves(self, values: list, totals: list, busy: list,
                      end_ns: int) -> None:
        """Record the entries of a row in which a counter, a histogram
        total or a busy total differs from the previous row's."""
        row = len(self._windows)
        entries = self._entries
        if values != self._counter_prev:
            for metric, value, prev in zip(self._counters, values,
                                           self._counter_prev):
                if value != prev:
                    entries.append((metric.name, row, value - prev))
            self._counter_prev = values
        if totals != self._hist_prev:
            for (metric, names, pcounts), total, ptotal in zip(
                    self._hists, totals, self._hist_prev):
                if total != ptotal:
                    counts = metric.counts
                    dtotal = total - ptotal
                    dcounts = [c - p for c, p in zip(counts, pcounts)]
                    entries.append((names[0], row, dtotal))
                    for name, p in zip(names[1:], _PERCENTILES):
                        entries.append((name, row, round(bucket_percentile(
                            metric.bounds, dcounts, dtotal, p), 1)))
                    pcounts[:] = counts
            self._hist_prev = totals
        if self._busy_prev is None:
            keys = self.device._telemetry_cumulative()[0]
            self._busy_names = [key.removesuffix("_ns") + "_frac"
                                for key in keys]
            self._defaults.update(dict.fromkeys(self._busy_names, 0.0))
            self._busy_prev = [0] * len(keys)
        if busy != self._busy_prev:
            elapsed = end_ns - self._closed * self.interval_ns
            if elapsed <= 0:
                elapsed = self.interval_ns
            for name, total, prev in zip(self._busy_names, busy,
                                         self._busy_prev):
                if total != prev:
                    entries.append(
                        (name, row, round((total - prev) / elapsed, 6)))
            self._busy_prev = list(busy)

    # ------------------------------------------------------------- finalize
    def segment(self) -> dict[str, Any]:
        """Close the partial final window and return the columnar segment.

        The final row always exists (it carries the end-of-run census
        and any activity after the last boundary); all-falsy columns are
        dropped — absence means "never moved". Every value is a JSON
        number or ``None`` as long as the metrics and level hooks hold
        ints and floats; the engine checks it (DESIGN.md §9).
        """
        if not self._finalized:
            self._finalized = True
            now = int(self.device.sim.now)
            self._sample(self._closed + 1, now)
        windows = self._windows
        rows = len(windows)
        cols: dict[str, list] = {}
        names = self.device._telemetry_level_names
        levels = self._level_values
        for index, name in enumerate(names):
            col = levels[index::len(names)]
            if not any(col):
                continue
            if col[0] is None:  # absent until first seen: pad with 0
                first = next(i for i, value in enumerate(col)
                             if value is not None)
                col[:first] = [0] * first
            cols[name] = col
        gauge_cols: list[list] = []
        values = self._gauge_values
        breaks = self._gauge_breaks
        for (row, offset, count), (end, _, _) in zip(
                breaks, breaks[1:] + [(rows, 0, 0)]):
            # Gauges bound at this break read 0 in the rows before it.
            gauge_cols += ([0] * row for _ in range(count - len(gauge_cols)))
            block = values[offset:offset + (end - row) * count]
            for index, col in enumerate(gauge_cols):
                col += block[index::count]
        cols.update(zip((metric.name for metric in self._gauges), gauge_cols))
        defaults = self._defaults
        moved: dict[str, list] = {}
        for name, row, value in self._entries:
            col = moved.get(name)
            if col is None:
                col = moved[name] = [defaults[name]] * rows
            col[row] = value
        cols.update(moved)
        columns = {name: cols[name] for name in sorted(cols) if any(cols[name])}
        return {
            "device": f"{self.device.kind}:{self.device.profile.name}",
            "ordinal": self.ordinal,
            "interval_ns": self.interval_ns,
            "rows": rows,
            "end_ns": int(self.device.sim.now),
            "windows": windows,
            "spans": [b - a for a, b in zip([0] + windows, windows)],
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
