"""Tests for time-resolved telemetry, run directories, and ``repro report``.

The guarantees under test:

* the sampler's windowed deltas are exact — counter columns sum back to
  the registry totals, window indices and spans agree,
* enabling telemetry does not perturb the simulation: result tables are
  identical with it on or off,
* the merged timeseries is byte-identical at any ``--jobs`` (including
  under fault injection) and survives a cache round trip,
* drained segments are already canonical JSON, which the engine checks
  instead of round-tripping them,
* the pinned aggregation semantics (plan-order gauge merge, NaN from an
  empty histogram percentile) hold,
* the sampler emits exactly the segments of the plain per-window
  registry walk it replaced (kept below as a reference), on random
  command mixes and on rows where exactly one thing moves, and
  committed digests pin telemetry across commits,
* the run directory round-trips and the HTML dashboard renders exactly
  the committed golden page.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import types

import pytest

from repro.core.experiments.common import (
    KIB,
    MIB,
    ExperimentConfig,
    build_conv_device,
)
from repro.core.experiments.points import experiment_plans
from repro.core.results import ExperimentResult
from repro.exec import canonical_payload, execute_experiments
from repro.exec.engine import check_segments
from repro.exec.pool import run_point
from repro.flash.geometry import FlashGeometry
from repro.hostif.commands import Command, Opcode, ZoneAction
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.report import RUN_SCHEMA, load_run, render_html, write_run
from repro.obs.telemetry import TelemetryCollector
from repro.sim.engine import Simulator, ms, us
from repro.stacks.spdk import SpdkStack
from repro.workload.job import IoKind, JobSpec, Pattern
from repro.workload.runner import JobRunner
from repro.conv import ConvDevice
from repro.zns import ZoneState
from repro.zns.device import ZnsDevice
from repro.zns.profiles import sn640, zn540_small

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "report_small.html")


#: An 8-die, ~128 MiB conventional geometry: small enough to precondition
#: in a fraction of a second, large enough for GC to keep up.
SMALL_CONV_GEOMETRY = FlashGeometry(channels=4, dies_per_channel=2,
                                    planes_per_die=1, blocks_per_plane=64,
                                    pages_per_block=16, page_size=16 * KIB)


def tiny_config(**extra) -> ExperimentConfig:
    return ExperimentConfig(point_runtime_ns=ms(2), ramp_ns=ms(0.4),
                            num_zones=16, zones_per_level=3, **extra)


def telemetry_blob(report) -> str:
    return json.dumps(report.telemetry, sort_keys=True)


def _run_smoke(interval_ns: int):
    """Appends + reads + a reset on a small device under a sampler."""
    collector = TelemetryCollector(interval_ns)
    sim = Simulator()
    device = ZnsDevice(sim, zn540_small(), telemetry=collector)
    nlb = device.namespace.lbas(16 * 1024)
    zone = device.zones.zones[0]
    for _ in range(48):
        sim.run(until=device.submit(
            Command(Opcode.APPEND, slba=zone.zslba, nlb=nlb)))
    for i in range(16):
        sim.run(until=device.submit(
            Command(Opcode.READ, slba=zone.zslba + i * nlb, nlb=nlb)))
    sim.run(until=device.submit(
        Command(Opcode.ZONE_MGMT, slba=zone.zslba, action=ZoneAction.RESET)))
    return collector, device


class TestSampler:
    def test_window_and_span_arithmetic(self):
        collector, device = _run_smoke(us(5))
        [segment] = collector.drain()
        assert segment["rows"] >= 2
        assert len(segment["windows"]) == segment["rows"]
        assert len(segment["spans"]) == segment["rows"]
        previous = 0
        for window, span in zip(segment["windows"], segment["spans"]):
            assert window > previous
            assert span == window - previous
            previous = window
        for name, column in segment["columns"].items():
            assert len(column) == segment["rows"], name

    def test_counter_deltas_sum_to_registry_totals(self):
        collector, device = _run_smoke(us(5))
        [segment] = collector.drain()
        registry = {metric.name: metric for metric in device.metrics}
        checked = 0
        for name, column in segment["columns"].items():
            metric = registry.get(name)
            if metric is not None and type(metric) is Counter:
                assert sum(v or 0 for v in column) == metric.value, name
                checked += 1
        assert checked >= 3  # host ops, nand ops, ...

    def test_zone_census_present_and_conserved(self):
        collector, device = _run_smoke(us(5))
        [segment] = collector.drain()
        census = {name: column for name, column in segment["columns"].items()
                  if name.startswith("zones.")}
        assert census, "zone-state census columns missing"
        total_zones = len(device.zones.zones)
        # Instantaneous census: states absent from a row are zero, so the
        # sum of present states never exceeds the zone count.
        for i in range(segment["rows"]):
            assert sum(column[i] or 0 for column in census.values()) \
                <= total_zones

    def test_drain_is_idempotent_per_sampler(self):
        collector, _device = _run_smoke(us(5))
        first = collector.drain()
        second = collector.drain()
        assert first == second  # segment() finalizes exactly once

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            TelemetryCollector(0)


class TestPinnedAggregation:
    def test_empty_histogram_percentile_is_nan(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", bounds=(10, 100, 1000))
        assert math.isnan(histogram.percentile(50))
        histogram.observe(42)
        assert histogram.percentile(50) == pytest.approx(55.0, rel=0.5)

    def test_merge_snapshot_gauge_last_wins(self):
        first = MetricsRegistry()
        first.gauge("depth").set(7)
        second = MetricsRegistry()
        second.gauge("depth").set(3)
        target = MetricsRegistry()
        target.merge_snapshot(first.snapshot())
        target.merge_snapshot(second.snapshot())
        gauge = target.gauge("depth")
        assert gauge.value == 3      # plan-order: last snapshot wins
        assert gauge.max_value == 7  # highs still take the max


class TestEngineIntegration:
    def test_telemetry_does_not_perturb_results(self):
        plain, _ = execute_experiments(
            ["fig2a"], tiny_config(), jobs=1, cache_dir=None)
        sampled, report = execute_experiments(
            ["fig2a"], tiny_config(telemetry_interval_ns=us(100)),
            jobs=1, cache_dir=None)
        assert plain["fig2a"].table() == sampled["fig2a"].table()
        segments = report.telemetry["fig2a"]
        assert segments
        assert all(s["experiment_id"] == "fig2a" for s in segments)

    def test_disabled_report_carries_no_telemetry(self):
        _, report = execute_experiments(
            ["fig2a"], tiny_config(), jobs=1, cache_dir=None)
        assert report.telemetry == {}

    def test_jobs_invariant_under_faults(self):
        config = tiny_config(telemetry_interval_ns=us(100), faults="chaos")
        _, serial = execute_experiments(
            ["fig2a"], config, jobs=1, cache_dir=None)
        _, parallel = execute_experiments(
            ["fig2a"], config, jobs=4, cache_dir=None)
        assert telemetry_blob(serial) == telemetry_blob(parallel)
        columns = {name for segment in serial.telemetry["fig2a"]
                   for name in segment["columns"]}
        assert any(name.startswith("faults.") for name in columns)

    def test_cache_round_trip(self, tmp_path):
        config = tiny_config(telemetry_interval_ns=us(100))
        _, cold = execute_experiments(
            ["fig2a"], config, jobs=1, cache_dir=str(tmp_path))
        _, warm = execute_experiments(
            ["fig2a"], config, jobs=1, cache_dir=str(tmp_path))
        assert warm.cache_hits == len(warm.points)
        assert telemetry_blob(cold) == telemetry_blob(warm)

    def test_live_collector_on_config_is_rejected(self):
        config = tiny_config(telemetry=TelemetryCollector(us(100)))
        with pytest.raises(ValueError, match="telemetry_interval_ns"):
            execute_experiments(["fig2a"], config, jobs=1, cache_dir=None)

    def test_pool_emits_started_progress(self):
        lines = []
        execute_experiments(["fig2a"], tiny_config(), jobs=2,
                            cache_dir=None, progress=lines.append)
        assert any("started (pid" in line for line in lines)


def same_json(a, b) -> bool:
    """Equal, with every element of the same type (``0 == 0.0`` fails)."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return a.keys() == b.keys() and all(same_json(a[k], b[k]) for k in a)
    if type(a) is list:
        return len(a) == len(b) and all(map(same_json, a, b))
    return a == b


FAULT_PRESETS = [None, "read-disturb", "chaos", "wearout", "power-cut"]


class TestSegmentContract:
    """The engine type-checks segments instead of JSON round-tripping
    them: what a sampler drains must already be in canonical form."""

    @pytest.mark.parametrize("faults", FAULT_PRESETS)
    def test_zns_point_segments_are_canonical(self, faults):
        plan = experiment_plans()["fig2b"]
        config = tiny_config(telemetry_interval_ns=us(100), faults=faults)
        params = plan.plan(config)[-1]
        segments = run_point(plan, config, params, True)["telemetry"]
        assert segments and segments[0]["device"].startswith("zns:")
        for segment in segments:
            assert same_json(canonical_payload(segment), segment)
        assert check_segments(segments) is segments

    @pytest.mark.parametrize("faults", FAULT_PRESETS)
    def test_conv_point_segments_are_canonical(self, faults):
        # At the oracle's 0.9 fill, chaos's erase failures exhaust the
        # small FTL's free blocks and GC dies (ROADMAP item 1).
        segments = conv_point_segments(faults, utilization=0.85)
        assert segments and segments[0]["device"].startswith("conv:")
        for segment in segments:
            assert same_json(canonical_payload(segment), segment)
        assert check_segments(segments) is segments

    def test_non_native_level_value_raises_naming_the_column(self,
                                                             monkeypatch):
        np = pytest.importorskip("numpy")
        levels = ZnsDevice._telemetry_levels

        def numpy_queue(self):
            queue, *rest = levels(self)
            return (np.float64(queue + 0.5), *rest)

        monkeypatch.setattr(ZnsDevice, "_telemetry_levels", numpy_queue)
        with pytest.raises(TypeError, match="'ctrl.queue'.*float64"):
            execute_experiments(["fig2a"],
                                tiny_config(telemetry_interval_ns=us(100)),
                                jobs=1, cache_dir=None)

    def test_check_rejects_non_list_columns(self):
        segment = {"device": "zns:x", "ordinal": 0, "rows": 2,
                   "windows": [1, 2], "columns": {"a.b": (1, 2)}}
        with pytest.raises(TypeError, match="'a.b'.*tuple"):
            check_segments([segment])


# --------------------------------------------------------- reference sampler
def _ref_delta_percentile(bounds, dcounts, dtotal, p):
    rank = p / 100 * dtotal
    cumulative = 0
    last = len(bounds)
    for i, count in enumerate(dcounts):
        if count > 0 and cumulative + count >= rank:
            lower = 0 if i == 0 else bounds[i - 1]
            if i == last:
                return float(lower)
            upper = bounds[i]
            fraction = (rank - cumulative) / count
            return lower + (upper - lower) * min(1.0, max(0.0, fraction))
        cumulative += count
    return float(bounds[-1])


class ReferenceSampler:
    """The sampler as a plain per-window walk over the whole registry,
    kept as the oracle for :class:`TelemetrySampler`. The only changes
    from that code read the hooks' current shapes: the ``(keys,
    totals)`` busy hook, and the level tuple, rebuilt into the dict of
    present levels (``None`` means absent) the walk consumed."""

    def __init__(self, interval_ns, device):
        self.interval_ns = interval_ns
        self.device = device
        self._closed = 0
        self._next = interval_ns
        self._rows = 0
        self._windows = []
        self._spans = []
        self._cols = {}
        self._prev_counters = {}
        self._prev_hists = {}
        self._prev_cumulative = {}
        self._finalized = False
        device.sim.add_tick_hook(self._on_advance)

    def _on_advance(self, now):
        if now < self._next:
            return
        completed = now // self.interval_ns
        self._sample(completed, completed * self.interval_ns)
        self._next = (completed + 1) * self.interval_ns

    def _sample(self, completed, end_ns):
        span = completed - self._closed
        elapsed = end_ns - self._closed * self.interval_ns
        if elapsed <= 0:
            elapsed = self.interval_ns
        cols = self._cols
        nrows = self._rows

        def put(name, value, pad=0):
            col = cols.get(name)
            if col is None:
                col = [pad] * nrows
                cols[name] = col
            col.append(value)

        device = self.device
        prev_counters = self._prev_counters
        prev_hists = self._prev_hists
        for metric in device.metrics:
            name = metric.name
            cls = type(metric)
            if cls is Counter:
                value = metric.value
                put(name, value - prev_counters.get(name, 0))
                prev_counters[name] = value
            elif cls is Gauge:
                if not name.startswith("nand.die"):
                    put(name, metric.value)
            elif cls is Histogram:
                counts = metric.counts
                total = metric.total
                prev = prev_hists.get(name)
                if prev is None:
                    dcounts = list(counts)
                    dtotal = total
                else:
                    pcounts, ptotal = prev
                    dtotal = total - ptotal
                    dcounts = (
                        [c - p for c, p in zip(counts, pcounts)]
                        if dtotal else None
                    )
                put(f"{name}.count", dtotal)
                for p in (50, 95, 99):
                    put(
                        f"{name}.p{p}",
                        round(_ref_delta_percentile(metric.bounds, dcounts,
                                                    dtotal, p), 1)
                        if dtotal else None,
                        pad=None,
                    )
                prev_hists[name] = (list(counts), total)
        levels = dict(zip(device._telemetry_level_names,
                          device._telemetry_levels()))
        for name, value in levels.items():
            if value is not None:
                put(name, value)
        prev_cumulative = self._prev_cumulative
        for name, value in zip(*device._telemetry_cumulative()):
            delta = value - prev_cumulative.get(name, 0)
            prev_cumulative[name] = value
            if name.endswith(".busy_ns"):
                put(name[: -len(".busy_ns")] + ".busy_frac",
                    round(delta / elapsed, 6))
            else:
                put(name, delta)
        self._rows += 1
        for col in cols.values():
            if len(col) < self._rows:
                col.append(None)
        self._windows.append(completed)
        self._spans.append(span)
        self._closed = completed

    def segment(self):
        if not self._finalized:
            self._finalized = True
            self._sample(self._closed + 1, int(self.device.sim.now))
        columns = {}
        for name in sorted(self._cols):
            col = self._cols[name]
            if any(v is not None and v != 0 for v in col):
                columns[name] = col
        return {
            "device": f"{self.device.kind}:{self.device.profile.name}",
            "ordinal": 0,
            "interval_ns": self.interval_ns,
            "rows": self._rows,
            "end_ns": int(self.device.sim.now),
            "windows": self._windows,
            "spans": self._spans,
            "columns": columns,
        }


def sampled_device(kind: str, interval_ns: int):
    """A small device with the sampler and the reference both attached."""
    collector = TelemetryCollector(interval_ns)
    sim = Simulator()
    if kind == "zns":
        device = ZnsDevice(sim, zn540_small(), metrics=MetricsRegistry(),
                           telemetry=collector)
    else:
        device = ConvDevice(sim, sn640(geometry=SMALL_CONV_GEOMETRY,
                                       write_buffer_bytes=4 * MIB),
                            metrics=MetricsRegistry(), telemetry=collector)
    return sim, device, collector, ReferenceSampler(interval_ns, device)


def zns_commands(device, rng: random.Random):
    """A random ZNS command over the first few zones."""
    zone = device.zones.zones[rng.randrange(6)]
    nlb = device.namespace.lbas(rng.choice((4, 16, 64)) * KIB)
    roll = rng.random()
    if roll < 0.45:
        return Command(Opcode.APPEND, slba=zone.zslba, nlb=nlb)
    if roll < 0.6:
        return Command(Opcode.WRITE, slba=zone.wp, nlb=nlb)
    if roll < 0.8:
        return Command(Opcode.READ, slba=zone.zslba, nlb=nlb)
    return Command(Opcode.ZONE_MGMT, slba=zone.zslba,
                   action=rng.choice(list(ZoneAction)))


def conv_commands(device, rng: random.Random):
    """A random conventional command, confined to a hot range so GC runs."""
    nlb = device.namespace.lbas(rng.choice((4, 16, 64)) * KIB)
    slba = rng.randrange(device.namespace.capacity_lbas // 2 - nlb)
    opcode = rng.choice((Opcode.WRITE, Opcode.WRITE, Opcode.READ, Opcode.TRIM))
    return Command(opcode, slba=slba, nlb=nlb)


def drive(sim, device, make_command, seed: int, batches: int = 40):
    """Submit random batches, with idle gaps, and register metrics late."""
    rng = random.Random(seed)
    for batch in range(batches):
        events = [device.submit(make_command(device, rng))
                  for _ in range(rng.randint(1, 12))]
        sim.run(until=sim.all_of(events))
        if rng.random() < 0.3:
            sim.run(until=sim.timeout(rng.choice((us(7), us(40), us(300)))))
        if batch == batches // 2:
            # Registered after rows exist: the plan must extend itself.
            device.metrics.counter("late.ops").inc(3)
            device.metrics.gauge("late.depth").set(2)
            device.metrics.histogram("late.lat_ns").observe(1234)
        if batch > batches // 2:
            device.metrics.counter("late.ops").inc(rng.randint(0, 1))
            device.metrics.histogram("late.lat_ns").observe(rng.randint(1, 10**6))


class TestReferenceEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("interval_ns", [us(5), us(20)])
    def test_zns_random_mix(self, seed, interval_ns):
        sim, device, collector, reference = sampled_device("zns", interval_ns)
        drive(sim, device, zns_commands, seed)
        [segment] = collector.drain()
        assert segment["rows"] > 20
        assert segment == reference.segment()
        assert "late.ops" in segment["columns"]
        assert segment["columns"]["late.ops"][0] == 0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_conv_random_mix(self, seed):
        sim, device, collector, reference = sampled_device("conv", us(20))
        device.precondition(0.9, steady_state_churn=1.0, seed=seed)
        drive(sim, device, conv_commands, seed, batches=60)
        assert device.ftl.total_gc_pages_copied > 0
        [segment] = collector.drain()
        assert segment == reference.segment()
        assert "ftl.free_frac" in segment["columns"]

    def test_zone_state_appears_disappears_reappears(self):
        """Pins the census padding quirk: ``0`` before a state is first
        seen, ``None`` while no zone is in it afterwards."""
        sim, device, collector, reference = sampled_device("zns", us(10))
        zone = device.zones.zones[0]
        idle = us(35)

        def step(command=None):
            if command is not None:
                sim.run(until=device.submit(command))
            sim.run(until=sim.timeout(idle))

        step()
        step(Command(Opcode.ZONE_MGMT, slba=zone.zslba, action=ZoneAction.OPEN))
        opened = len(reference._windows)
        step(Command(Opcode.ZONE_MGMT, slba=zone.zslba, action=ZoneAction.CLOSE))
        closed = len(reference._windows)
        step(Command(Opcode.ZONE_MGMT, slba=zone.zslba, action=ZoneAction.OPEN))
        [segment] = collector.drain()
        assert segment == reference.segment()
        column = segment["columns"]["zones.explicit_open"]
        assert column[0] == 0                        # before first seen
        assert column[opened - 1] == 1
        assert column[closed - 1] is None            # seen, now absent
        assert column[-1] == 1                       # reappeared
        assert device.zones.census[ZoneState.EXPLICIT_OPEN] == 1


def idle_row(sim, reference) -> int:
    """Idle past a few windows in one clock advance, so exactly one row
    closes; returns that row's index."""
    sim.run(until=sim.timeout(us(35)))
    return len(reference._windows) - 1


def moved_columns(device, segment, row: int) -> set:
    """Columns that moved at ``row``: a level or gauge whose value (or
    value type) differs from the previous row's, any other column where
    its delta is non-zero."""
    instant = set(device._telemetry_level_names)
    instant.update(m.name for m in device.metrics if type(m) is Gauge)
    moved = set()
    for name, column in segment["columns"].items():
        now, before = column[row], column[row - 1]
        if name in instant:
            if now != before or type(now) is not type(before):
                moved.add(name)
        elif now not in (0, None):
            moved.add(name)
    return moved


class TestQuietRows:
    """Rows in which exactly one thing moves, between quiet rows, must
    match the reference walk: the sampler records entries only on rows
    where a counter, a histogram total or a busy total moved."""

    def run(self, change):
        """Three quiet rows, ``change(device)``, the row that sees it, two
        more quiet rows; returns the segment, that row and its movers."""
        sim, device, collector, reference = sampled_device("zns", us(10))
        for _ in range(3):
            idle_row(sim, reference)
        change(device)
        row = idle_row(sim, reference)
        idle_row(sim, reference)
        idle_row(sim, reference)
        [segment] = collector.drain()
        assert json.dumps(segment) == json.dumps(reference.segment())
        return segment, row, moved_columns(device, segment, row)

    def test_controller_queue_alone_while_a_command_waits(self):
        sim, device, collector, reference = sampled_device("zns", us(10))
        idle_row(sim, reference)
        holder = device.controller.request()  # granted: the slot is taken
        held = idle_row(sim, reference)
        zone = device.zones.zones[0]
        done = device.submit(Command(Opcode.READ, slba=zone.zslba,
                                     nlb=device.namespace.lbas(4 * KIB)))
        waiting = idle_row(sim, reference)
        device.controller.release(holder)
        sim.run(until=done)
        idle_row(sim, reference)
        [segment] = collector.drain()
        assert json.dumps(segment) == json.dumps(reference.segment())
        column = segment["columns"]["ctrl.queue"]
        assert (column[held], column[waiting]) == (1, 2)
        assert moved_columns(device, segment, held) == {"ctrl.queue"}
        assert moved_columns(device, segment, waiting) == {"ctrl.queue"}

    def test_census_state_appears_with_no_counter_moving(self):
        def close_zone_zero(device):
            # A fixture restore: the census moves, no observer fires.
            image = device.zones.state_snapshot()
            zone = device.zones.zones[0]
            image[0] = ("closed", zone.zslba + 8, 0)
            device.zones.restore_state(image)

        segment, row, moved = self.run(close_zone_zero)
        assert moved == {"zones.empty", "zones.closed"}
        closed = segment["columns"]["zones.closed"]
        assert closed == [0] * row + [1] * (segment["rows"] - row)

    def test_one_gauge(self):
        segment, row, moved = self.run(
            lambda device: device.metrics.get("device.zones.open").set(3))
        assert moved == {"device.zones.open"}

    def test_one_histogram_count(self):
        segment, row, moved = self.run(
            lambda device: device.metrics.get("device.latency_ns.read")
            .observe(us(80)))
        assert moved == {f"device.latency_ns.read.{field}"
                         for field in ("count", "p50", "p95", "p99")}
        assert segment["columns"]["device.latency_ns.read.count"][row] == 1

    def test_one_die_busy_total(self):
        def busy_die_three(device):
            device.backend._die_busy_ns[3] += us(5)

        segment, row, moved = self.run(busy_die_three)
        assert moved == {"nand.die3.busy_frac"}

    def test_counter_registered_after_rows_exist(self):
        segment, row, moved = self.run(
            lambda device: device.metrics.counter("late.ops").inc(2))
        assert moved == {"late.ops"}
        late = segment["columns"]["late.ops"]
        assert late == [0] * row + [2] + [0] * (segment["rows"] - row - 1)

    def test_gauge_reset_to_an_equal_value_of_another_type(self):
        """``0.0`` and ``0`` compare equal but encode differently in
        the digest: each row holds the gauge's current object."""
        sim, device, collector, reference = sampled_device("zns", us(10))
        gauge = device.metrics.gauge("late.level")
        gauge.set(1.5)
        idle_row(sim, reference)
        gauge.set(0.0)
        as_float = idle_row(sim, reference)
        gauge.set(0)
        as_int = idle_row(sim, reference)
        idle_row(sim, reference)
        [segment] = collector.drain()
        assert json.dumps(segment) == json.dumps(reference.segment())
        column = segment["columns"]["late.level"]
        assert type(column[as_float]) is float
        assert type(column[as_int]) is int
        assert type(column[-1]) is int


# ------------------------------------------------------------------ oracle
def canonical_digest(segments) -> str:
    """sha256 of segments in the canonical form ``telemetry.json`` uses."""
    blob = json.dumps(segments, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def conv_point_segments(faults=None, utilization=0.9) -> list:
    """One conventional point on a small geometry: a greedy-GC steady
    state at ``utilization``, then a random-write flood beside a random
    reader, under the ``faults`` preset.

    The plan-driven conv points (fig6, obs11, ablation-gc-priority)
    precondition a ~12 GiB device first, which alone takes longer than
    all of tier-1's telemetry tests; this one keeps GC, the FTL levels
    and per-die busy columns moving in a fraction of a second.
    """
    collector = TelemetryCollector(us(20))
    config = tiny_config(metrics=MetricsRegistry(), telemetry=collector,
                         faults=faults)
    sim, device = build_conv_device(
        config, sn640(geometry=SMALL_CONV_GEOMETRY, write_buffer_bytes=4 * MIB))
    device.precondition(utilization, steady_state_churn=1.0, seed=config.seed)
    span = (0, device.namespace.capacity_lbas)
    writer = JobRunner(
        device, SpdkStack(device, enforce_write_serialization=False),
        JobSpec(op=IoKind.WRITE, pattern=Pattern.RANDOM, address_range=span,
                block_size=64 * KIB, iodepth=8, numjobs=2,
                runtime_ns=ms(4), seed=1))
    reader = JobRunner(
        device, SpdkStack(device),
        JobSpec(op=IoKind.READ, pattern=Pattern.RANDOM, address_range=span,
                block_size=4 * KIB, iodepth=8, runtime_ns=ms(4), seed=2))
    sim.run(until=sim.all_of([writer.start(), reader.start()]))
    assert device.ftl.total_gc_pages_copied > 0
    return collector.drain()


def fig5b_point_segments() -> list:
    """The 50%-occupancy finish point of fig5b, sampled every 100 us."""
    plan = experiment_plans()["fig5b"]
    config = tiny_config(telemetry_interval_ns=us(100))
    return run_point(plan, config, {"occupancy": "50%"}, True)["telemetry"]


def experiment_segments(exp_id: str, **extra) -> dict:
    config = tiny_config(telemetry_interval_ns=us(100), **extra)
    _, report = execute_experiments([exp_id], config, jobs=1, cache_dir=None)
    return report.telemetry


#: sha256 of canonical telemetry per case, recorded at commit 5ef1e3c,
#: before the sampler kept a column plan and the zone manager kept the
#: census. Telemetry is simulated output: a sampler change must leave
#: these unchanged, and a deliberate change to what is sampled updates
#: them in the same commit and says why.
TELEMETRY_SHA256 = {
    "conv-point": "e470c785b58d2aca227b118ccec1fad438db7af55bd37d38e682e778e4ad57c8",
    "fig5b-finish": "256529e1481e7b92948e0deef13368463c2f7ab18e1da5a5f2b8672c172cfcac",
    "fig7_fleet": "9be27e282e47b8f0a5961bc8b5a9914b22cec9b52bcb3112b8adbdd9043a765d",
    "fig8_aging-wearout": "0a8a0a04e0eff60e9fb2fce94fcbdcf885d7ba9aa4f753f4a964b11374b75119",
}

TELEMETRY_CASES = {
    "conv-point": conv_point_segments,
    "fig5b-finish": fig5b_point_segments,
    "fig7_fleet": lambda: experiment_segments("fig7_fleet"),
    "fig8_aging-wearout": lambda: experiment_segments("fig8_aging",
                                                      faults="wearout"),
}


class TestTelemetryOracle:
    @pytest.mark.parametrize("case", sorted(TELEMETRY_CASES))
    def test_telemetry_digest_is_pinned(self, case):
        assert canonical_digest(TELEMETRY_CASES[case]()) \
            == TELEMETRY_SHA256[case]


# ----------------------------------------------------------------- run dirs
def _fake_report():
    return types.SimpleNamespace(
        jobs=2, points=[object(), object()], executed=2, cache_hits=0,
        failed=0, wall_s=1.234, events=4321,
        telemetry={
            "figX": [{
                "device": "zns:zn540-small", "ordinal": 0,
                "interval_ns": 100_000, "rows": 4, "end_ns": 400_000,
                "windows": [1, 2, 3, 4], "spans": [1, 1, 1, 1],
                "columns": {
                    "host.appends": [5, 6, 0, 2],
                    "lat.append.p95": [12.5, 13.0, None, 11.0],
                    "lat.append.count": [5, 6, 0, 2],
                    "faults.injected": [0, 1, 0, 0],
                    "gc.running": [0, 0, 1, 1],
                    "wbuf.level_bytes": [4096, 8192, 0, 4096],
                    "nand.die0.busy_frac": [0.5, 0.25, 0.0, 0.125],
                    "nand.die1.busy_frac": [0.25, 0.75, 0.0, 0.375],
                },
                "experiment_id": "figX", "point": "qd=1",
            }],
        },
    )


def _fake_results():
    result = ExperimentResult(
        experiment_id="figX", title="Synthetic table",
        columns=["stack", "kiops"],
        notes=["synthetic fixture for the report golden test"],
    )
    result.add_row(stack="spdk", kiops=123.4)
    result.add_row(stack="iouring", kiops=98.7)
    return {"figX": result}


def _golden_run(tmp_path) -> dict:
    run_dir = os.path.join(str(tmp_path), "golden-run")
    manifest = {
        "ids": ["figX"], "seed": 24301, "fast": True, "scale": 1.0,
        "faults": None, "interval_us": 100.0, "jobs": 2,
        "created": "2026-01-01T00:00:00",
    }
    write_run(run_dir, _fake_results(), _fake_report(), manifest)
    return load_run(run_dir)


class TestRunDirectory:
    def test_round_trip(self, tmp_path):
        run = _golden_run(tmp_path)
        assert run["manifest"]["schema"] == RUN_SCHEMA
        assert run["manifest"]["exec"]["points"] == 2
        assert run["results"]["figX"]["columns"] == ["stack", "kiops"]
        assert run["telemetry"]["figX"][0]["rows"] == 4

    def test_telemetry_json_is_canonical(self, tmp_path):
        _golden_run(tmp_path)
        path = os.path.join(str(tmp_path), "golden-run", "telemetry.json")
        raw = open(path, encoding="utf-8").read()
        doc = json.loads(raw)
        assert raw == json.dumps(doc, sort_keys=True,
                                 separators=(",", ":")) + "\n"

    def test_load_rejects_non_run_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run(str(tmp_path))

    def test_report_matches_golden(self, tmp_path):
        page = render_html(_golden_run(tmp_path))
        expected = open(GOLDEN, encoding="utf-8").read()
        assert page == expected, (
            "report HTML drifted from tests/golden/report_small.html; "
            "regenerate it if the change is intentional (see that file's "
            "sibling tests)"
        )

    def test_report_structure(self, tmp_path):
        page = render_html(_golden_run(tmp_path))
        assert page.count("<svg") >= 6          # one sparkline per family+
        assert 'class="s-fault"' in page        # faults wear the red series
        assert "die mean" in page               # per-die columns collapse
        assert "lat.append.p50" not in page     # p95 supersedes p50 tiles
        assert "src=" not in page and "href=" not in page  # self-contained
        assert "prefers-color-scheme: dark" in page
