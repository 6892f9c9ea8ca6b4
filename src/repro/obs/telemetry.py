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
* clock advances a process skipped while nothing else could run (a
  zone-management command sleeping through its quiet firmware chunks)
  arrive replayed, all at once as one ``range``, and ``sim.now`` is not
  moved to them. Nothing the sampler reads changes between them, so the
  rows they close after the first repeat that row;
* empty windows produce **no row** — a row's deltas cover the whole
  span since the previous row (``spans`` records how many intervals
  that is), which keeps idle stretches free instead of materializing
  runs of zeros.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Any, Optional, Sequence

import numpy as np

from .metrics import Counter, Gauge, Histogram

__all__ = ["TelemetryCollector", "TelemetrySampler", "DEFAULT_INTERVAL_US"]

#: Default sampling interval (simulated microseconds) for ``--telemetry``.
DEFAULT_INTERVAL_US = 100.0

#: Percentiles computed per latency histogram per window.
_PERCENTILES = (50, 95, 99)


def window_percentiles(bounds: Sequence[int], dcounts: np.ndarray,
                       dtotals: np.ndarray,
                       percentiles: Sequence[float]) -> np.ndarray:
    """:func:`~repro.obs.metrics.bucket_percentile` of every row of
    ``dcounts`` (one window's bucket counts per row, ``dtotals`` their
    sums, each > 0) at each of ``percentiles``, all at once: row *i* of
    the result holds the ``percentiles[i]``-th. The float operations are
    the scalar walk's, in its order, so each value equals its bit for
    bit."""
    rows = np.arange(len(dtotals))
    ranks = (np.asarray(percentiles) / 100)[:, None] * dtotals
    cumulative = np.cumsum(dcounts, axis=1)
    # The first bucket with an observation that reaches the rank.
    bucket = ((dcounts > 0)
              & (cumulative >= ranks[:, :, None])).argmax(axis=2)
    count = dcounts[rows, bucket]
    lower = np.array([0, *bounds])[bucket]
    # The overflow bucket spans nothing: it clamps to the last bound.
    upper = np.array([*bounds, bounds[-1]])[bucket]
    fraction = (ranks - (cumulative[rows, bucket] - count)) / count
    return lower + (upper - lower) * np.minimum(1.0, np.maximum(0.0, fraction))


def busy_fractions(totals: np.ndarray, elapsed: np.ndarray) -> np.ndarray:
    """Per-window busy fractions: the increase of each cumulative busy
    total (one row per window) over the window's elapsed nanoseconds."""
    return _increases(totals) / elapsed[:, None]


def _increases(totals: np.ndarray) -> np.ndarray:
    """Each row of ``totals`` less the row before it (the first less 0)."""
    increases = totals.copy()
    increases[1:] -= totals[:-1]
    return increases


def _stamps(times: Sequence[int]) -> np.ndarray:
    """Replayed times as an int64 array (a range without iterating it)."""
    if type(times) is range:
        return np.arange(times.start, times.stop, times.step, dtype=np.int64)
    return np.array(times, dtype=np.int64)


def _rounded(values: np.ndarray, digits: int) -> list:
    """Python ``round(value, digits)`` of each value (``np.round``
    rounds differently), taken once per distinct value: windows repeat a
    few values. No value is ``-0.0``, which would merge with ``0.0``."""
    distinct, index = np.unique(values, return_inverse=True)
    rounded = [round(value, digits) for value in distinct.tolist()]
    return np.array(rounded, dtype=object)[index].tolist()


def _column(rows: int, default: Any, at: list, values: list) -> list:
    """A ``rows``-long column of ``default`` with ``values`` at rows ``at``."""
    column = [default] * rows
    for row, value in zip(at, values):
        column[row] = value
    return column


def _columns(rows: int, default: Any, names: Sequence[str],
             moved: np.ndarray, marks: np.ndarray,
             values: list) -> dict[str, list]:
    """Per column *j* of ``marks`` (moved rows × columns) with a mark,
    the column ``names[j]`` holding, at each moved row marked, the next of
    ``values`` (taken column by column)."""
    at = moved[np.nonzero(marks.T)[1]].tolist()
    cols = {}
    start = 0
    for name, count in zip(names, np.count_nonzero(marks, axis=0).tolist()):
        if count:
            cols[name] = _column(rows, default, at[start:start + count],
                                 values[start:start + count])
            start += count
    return cols


class TelemetrySampler:
    """Windowed columnar sampler for one device.

    Attached by :meth:`TelemetryCollector.attach` from the device
    constructor; never instantiate directly. A clock advance costs one
    integer comparison (:meth:`_on_advance`). The registry is bound into
    a plan, extended only when it grows. A row stores the current gauge
    values and the device's level tuple as they are, and compares the
    counter values, histogram totals and per-die busy totals with the
    previous row's: only a row where one of them moved keeps a raw
    snapshot of them in flat typed arrays, with the bucket counts of
    each histogram whose total moved. :meth:`segment` differences the
    snapshots and takes the window percentiles for all rows at once
    (DESIGN.md §13.4).

    Padding is pinned, as segments are digested output: a column first
    seen at row *k* reads ``0`` before it (``None`` for percentiles).
    A level value of ``None`` means "absent": the ZNS census reports
    only states some zone is in, so ``zones.<state>`` reads ``0`` before
    that state is first seen and ``None`` in later rows where no zone is
    in it.
    """

    __slots__ = (
        "interval_ns", "device", "ordinal", "_closed", "_next", "_windows",
        "_bound", "_counters", "_counter_prev", "_hists", "_hist_prev",
        "_gauges", "_gauge_breaks", "_gauge_values", "_level_values", "_runs",
        "_busy_prev", "_moved", "_elapsed", "_snap_breaks", "_counter_snaps",
        "_total_snaps", "_busy_snaps", "_bucket_snaps", "_finalized",
    )

    def __init__(self, interval_ns: int, device: Any, ordinal: int):
        self.interval_ns = interval_ns
        self.device = device
        self.ordinal = ordinal
        self._closed = 0          # completed windows already sampled
        self._next = interval_ns  # sim time at which the next row closes
        self._windows = array("q")  # per row: the last window it closes
        self._bound = 0                      # registry metrics planned
        self._counters: list[Counter] = []
        self._counter_prev: list[int] = []
        self._hists: list[Histogram] = []
        self._hist_prev: list[int] = []      # histogram totals
        self._gauges: list[Gauge] = []
        # Gauge values and level values, sampled row after sampled row,
        # each flat: the level count is fixed per device, the gauge count
        # changes only at a (sampled row, offset, gauge count) break. Per
        # sampled row, ``_runs`` counts the rows it fills: itself and the
        # replayed rows that repeat it.
        self._gauge_breaks: list[tuple[int, int, int]] = []
        self._gauge_values: list = []
        self._level_values: list = []
        self._runs = array("q")
        self._busy_prev: Optional[list[int]] = None
        # Snapshots of the rows where something moved, flat: per moved
        # row its row index, elapsed ns, counter values, histogram
        # totals and busy totals; the counter and histogram widths change
        # only at a (moved row, counters, histograms) break. Each
        # histogram's bucket counts are kept for the rows its total moved.
        self._moved = array("q")
        self._elapsed = array("q")
        self._snap_breaks: list[tuple[int, int, int]] = []
        self._counter_snaps = array("q")
        self._total_snaps = array("q")
        self._busy_snaps = array("q")
        self._bucket_snaps: list[array] = []
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

    def _on_replay(self, times: Sequence[int]) -> None:
        """Bulk tick hook: the advances a process skipped while nothing
        else could run (:meth:`Simulator.replay_advances`), a ``range``
        or an increasing list.

        The first time that closes a window samples as
        :meth:`_on_advance` does. Nothing the sampler reads changes
        between the replayed times, so each later window closed repeats
        that row: it adds its window and one to the row's run, and
        stores no values.
        """
        interval = self.interval_ns
        first = bisect_left(times, self._next)
        if first == len(times):
            return
        completed = times[first] // interval
        self._sample(completed, completed * interval)
        windows = _stamps(times[first + 1:]) // interval
        later = windows[np.diff(windows, prepend=completed) > 0].tolist()
        if later:
            self._runs[-1] += len(later)
            self._windows.fromlist(later)
            self._closed = later[-1]
        self._next = (self._closed + 1) * interval

    def _bind(self, metrics: list) -> None:
        """Plan the metrics registered since the last row (registries
        only grow, in registration order)."""
        for metric in metrics[self._bound:]:
            cls = type(metric)
            if cls is Counter:
                self._counters.append(metric)
                self._counter_prev.append(0)
            elif cls is Gauge and not metric.name.startswith("nand.die"):
                # (Per-die busy gauges repeat the busy fractions below.)
                self._gauges.append(metric)
            elif cls is Histogram:
                self._hists.append(metric)
                self._hist_prev.append(0)
                self._bucket_snaps.append(array("q"))
        self._bound = len(metrics)
        breaks = self._gauge_breaks
        if len(self._gauges) != (breaks[-1][2] if breaks else 0):
            breaks.append((len(self._runs), len(self._gauge_values),
                           len(self._gauges)))
        widths = (len(self._counters), len(self._hists))
        breaks = self._snap_breaks
        if widths != (breaks[-1][1:] if breaks else (0, 0)):
            breaks.append((len(self._moved), *widths))

    def _sample(self, completed: int, end_ns: int) -> None:
        """Emit one row covering ``(last row .. completed]`` windows."""
        device = self.device
        if len(device.metrics) != self._bound:
            self._bind(list(device.metrics))
        values = [metric.value for metric in self._counters]
        totals = [metric.total for metric in self._hists]
        busy = device._telemetry_cumulative()[1]
        if (values != self._counter_prev or totals != self._hist_prev
                or busy != self._busy_prev):
            self._snapshot(values, totals, busy, end_ns)
        self._gauge_values += [metric.value for metric in self._gauges]
        self._level_values += device._telemetry_levels()
        self._runs.append(1)
        self._windows.append(completed)
        self._closed = completed

    def _snapshot(self, values: list, totals: list, busy: list,
                  end_ns: int) -> None:
        """Keep the raw totals of a row in which a counter value, a
        histogram total or a busy total differs from the previous row's."""
        self._moved.append(len(self._windows))
        elapsed = end_ns - self._closed * self.interval_ns
        self._elapsed.append(elapsed if elapsed > 0 else self.interval_ns)
        self._counter_snaps.fromlist(values)
        self._total_snaps.fromlist(totals)
        self._busy_snaps.fromlist(busy)
        if totals != self._hist_prev:
            for snaps, metric, total, prev in zip(
                    self._bucket_snaps, self._hists, totals, self._hist_prev):
                if total != prev:
                    snaps.fromlist(metric.counts)
        self._counter_prev = values
        self._hist_prev = totals
        self._busy_prev = list(busy)

    # ------------------------------------------------------------- finalize
    def _deltas(self, flat: array, field: int) -> np.ndarray:
        """Per moved row, the increase of each snapshot value over the
        previous moved row's, from ``flat`` stored with the widths of
        ``_snap_breaks[..][field]``; a metric bound later reads 0 before."""
        moved = len(self._moved)
        breaks = self._snap_breaks
        width = breaks[-1][field] if breaks else 0
        matrix = np.zeros((moved, width), np.int64)
        data = np.asarray(flat)
        offset = 0
        for (start, *widths), (stop, *_) in zip(
                breaks, breaks[1:] + [(moved, 0, 0)]):
            size = widths[field - 1]
            block = data[offset:offset + (stop - start) * size]
            matrix[start:stop, :size] = block.reshape(stop - start, size)
            offset += len(block)
        return _increases(matrix)

    def _moved_columns(self, rows: int) -> dict[str, list]:
        """The counter, histogram and busy columns, each with its values
        at the moved rows where it moved and its default elsewhere:
        ``0`` for counters and counts, ``None`` for percentiles, ``0.0``
        for busy fractions. Values are Python ``round``-ed, as the
        digests require."""
        moved = np.asarray(self._moved)
        deltas = self._deltas(self._counter_snaps, 1)
        marks = deltas != 0
        cols = _columns(rows, 0, [metric.name for metric in self._counters],
                        moved, marks, deltas.T[marks.T].tolist())
        dtotals = self._deltas(self._total_snaps, 2)
        for index in np.flatnonzero(dtotals.any(axis=0)).tolist():
            metric = self._hists[index]
            hit = np.flatnonzero(dtotals[:, index])
            dtotal = dtotals[hit, index]
            buckets = np.asarray(self._bucket_snaps[index])
            dcounts = _increases(buckets.reshape(len(hit), -1))
            at = moved[hit].tolist()
            cols[f"{metric.name}.count"] = _column(rows, 0, at, dtotal.tolist())
            values = _rounded(window_percentiles(
                metric.bounds, dcounts, dtotal, _PERCENTILES).ravel(), 1)
            for k, p in enumerate(_PERCENTILES):
                cols[f"{metric.name}.p{p}"] = _column(
                    rows, None, at, values[k * len(at):(k + 1) * len(at)])
        busy = np.asarray(self._busy_snaps).reshape(len(moved), -1)
        fractions = busy_fractions(busy, np.asarray(self._elapsed))
        marks = fractions != 0
        keys = self.device._telemetry_cumulative()[0]
        cols.update(_columns(
            rows, 0.0, [key.removesuffix("_ns") + "_frac" for key in keys],
            moved, marks, _rounded(fractions.T[marks.T], 6)))
        return cols

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
        rows = len(self._windows)
        sampled = len(self._runs)
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
                breaks, breaks[1:] + [(sampled, 0, 0)]):
            # Gauges bound at this break read 0 in the rows before it.
            gauge_cols += ([0] * row for _ in range(count - len(gauge_cols)))
            block = values[offset:offset + (end - row) * count]
            for index, col in enumerate(gauge_cols):
                col += block[index::count]
        cols.update(zip((metric.name for metric in self._gauges), gauge_cols))
        if sampled < rows:
            # Each sampled row's values, repeated over the rows it fills.
            fill = np.repeat(np.arange(sampled), self._runs)
            for name, col in cols.items():
                cols[name] = np.array(col, dtype=object)[fill].tolist()
        cols.update(self._moved_columns(rows))
        columns = {name: cols[name] for name in sorted(cols) if any(cols[name])}
        return {
            "device": f"{self.device.kind}:{self.device.profile.name}",
            "ordinal": self.ordinal,
            "interval_ns": self.interval_ns,
            "rows": rows,
            "end_ns": int(self.device.sim.now),
            "windows": self._windows.tolist(),
            "spans": np.diff(self._windows, prepend=0).tolist(),
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
        device.sim.add_tick_hook(sampler._on_advance, sampler._on_replay)
        return sampler

    def drain(self) -> list[dict[str, Any]]:
        return [sampler.segment() for sampler in self._samplers]
