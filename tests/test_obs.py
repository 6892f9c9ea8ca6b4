"""Tests for the observability subsystem: tracer, metrics, profile.

The load-bearing property is the last class: enabling tracing/metrics
must not change simulation results at all (the tracer only observes the
integer-ns clock; it never touches the RNG streams or the event heap).
"""

import hashlib
import io
import json

import numpy as np
import pytest

from repro.core import ExperimentConfig
from repro.hostif import Command, Opcode, ZoneAction
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS_NS,
    Histogram,
    MetricsRegistry,
    NULL_TRACER,
    NullTracer,
    Tracer,
)
from repro.obs.profile import LayerBreakdown, _union_ns, run_self_profile
from repro.sim import ms
from repro.workload.stats import LatencyStats, TimeSeries

from .util import append, make_device, read, run_cmd, run_experiment, write


class TestTracer:
    def test_events_sorted_monotonically(self):
        tracer = Tracer()
        tracer.span("nand", "late", 500, 900)
        tracer.span("controller", "early", 100, 200)
        tracer.instant("zone", "t", 100)
        ts = [e.ts for e in tracer.events()]
        assert ts == sorted(ts)
        # Equal timestamps keep insertion order (stable export).
        assert [e.name for e in tracer.events()][:2] == ["early", "t"]

    def test_span_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            Tracer().span("nand", "bad", 100, 50)

    def test_begin_command_ids_are_unique_and_counted(self):
        tracer = Tracer()
        ids = [tracer.begin_command("write") for _ in range(5)]
        assert ids == [1, 2, 3, 4, 5]
        assert tracer._cmd_seq == 5

    def test_jsonl_roundtrip(self):
        tracer = Tracer()
        tracer.span("command", "write", 10, 30, track="commands", cid=1)
        tracer.counter("qd", 20, 3)
        buf = io.StringIO()
        assert tracer.write_jsonl(buf) == 2
        lines = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert lines[0] == {
            "args": {"cid": 1}, "cat": "command", "dur": 20, "name": "write",
            "ph": "X", "track": "commands", "ts": 10,
        }
        assert lines[1]["ph"] == "C" and lines[1]["args"]["value"] == 3

    def test_chrome_trace_schema(self):
        tracer = Tracer()
        tracer.register_process("zns:test")
        tracer.span("nand", "read.page", 1_000, 43_000, track="die3", cid=7)
        tracer.instant("zone", "EMPTY->IMPLICIT_OPEN", 2_000, track="zones")
        payload = tracer.to_chrome_trace()
        events = payload["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        assert {"process_name", "thread_name"} <= {e["name"] for e in metas}
        span = next(e for e in events if e["ph"] == "X")
        # trace_event timestamps are microseconds.
        assert span["ts"] == 1.0 and span["dur"] == 42.0
        assert isinstance(span["pid"], int) and isinstance(span["tid"], int)
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["s"] == "t"

    def test_null_tracer_records_nothing(self):
        tracer = NullTracer()
        assert not tracer.enabled
        tracer.span("nand", "x", 0, 10)
        tracer.instant("zone", "x", 0)
        tracer.counter("x", 0, 1)
        assert tracer.begin_command("write") == 0
        assert tracer.register_process("dev") == 0
        assert len(tracer) == 0
        assert len(NULL_TRACER) == 0


class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        c = registry.counter("ops")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)
        g = registry.gauge("depth")
        g.set(3)
        g.set(1)
        assert g.value == 1 and g.max_value == 3

    def test_registry_get_or_create_and_kind_conflict(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_merge_snapshot_combines_workers(self):
        import json

        a, b = MetricsRegistry(), MetricsRegistry()
        for registry, ops, depth, lat in ((a, 3, 2.0, 1_500), (b, 4, 5.0, 9_000)):
            registry.counter("ops").inc(ops)
            registry.gauge("depth").set(depth)
            registry.histogram("lat", bounds=[1_000, 8_000]).observe(lat)
        merged = MetricsRegistry()
        # JSON round-trip, as snapshots arrive from workers / the cache
        # (dict keys become strings).
        for source in (a, b):
            merged.merge_snapshot(json.loads(json.dumps(source.snapshot())))
        assert merged.counter("ops").value == 7
        gauge = merged.gauge("depth")
        assert gauge.value == 5.0 and gauge.max_value == 5.0
        hist = merged.histogram("lat", bounds=[1_000, 8_000])
        assert hist.total == 2 and hist.sum == 10_500
        assert hist.counts == [0, 1, 1]

    def test_merge_snapshot_matches_serial_recording(self):
        serial, w1, w2 = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        for value in (500, 3_000, 64_000):
            serial.histogram("lat").observe(value)
            serial.counter("n").inc()
        for registry, values in ((w1, (500, 3_000)), (w2, (64_000,))):
            for value in values:
                registry.histogram("lat").observe(value)
                registry.counter("n").inc()
        merged = MetricsRegistry()
        merged.merge_snapshot(w1.snapshot())
        merged.merge_snapshot(w2.snapshot())
        assert merged.snapshot() == serial.snapshot()

    def test_merge_snapshot_rejects_mismatched_bounds(self):
        target = MetricsRegistry()
        target.histogram("lat", bounds=[100, 200])
        other = MetricsRegistry()
        other.histogram("lat", bounds=[100, 300]).observe(50)
        with pytest.raises(ValueError, match="bucket bounds"):
            target.merge_snapshot(other.snapshot())

    def test_merge_snapshot_rejects_unknown_shape(self):
        with pytest.raises(ValueError, match="unrecognized"):
            MetricsRegistry().merge_snapshot({"weird": {"shape": 1}})

    def test_histogram_bucket_math(self):
        h = Histogram("lat", bounds=(10, 100, 1000))
        for v in (5, 10, 50, 500, 5000):
            h.observe(v)
        # Buckets are <= bound; the 4th bucket is the overflow.
        assert h.counts == [2, 1, 1, 1]
        assert h.total == 5 and h.sum == 5565
        assert h.mean == pytest.approx(1113.0)

    def test_histogram_percentile_interpolates(self):
        h = Histogram("lat", bounds=(100, 200, 400))
        for _ in range(100):
            h.observe(150)
        # All mass in (100, 200]; p50 interpolates inside that bucket.
        assert 100 < h.percentile(50) <= 200
        assert h.percentile(0) == 100  # lower edge of the first hit bucket
        h.observe(10_000)  # overflow clamps to the last finite bound
        assert h.percentile(100) == 400

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(10, 10))
        with pytest.raises(ValueError):
            Histogram("bad", bounds=())

    def test_default_latency_buckets_cover_paper_range(self):
        # 1 us .. > 1 s: spans QD1 4K reads (~87 us) through full-zone
        # resets (milliseconds).
        assert DEFAULT_LATENCY_BUCKETS_NS[0] == 1_000
        assert DEFAULT_LATENCY_BUCKETS_NS[-1] > 1_000_000_000


class TestDeviceTracing:
    def test_every_command_gets_a_span(self):
        tracer = Tracer()
        sim, device = make_device(tracer=tracer)
        nlb = device.namespace.lbas(8192)
        run_cmd(sim, device, append(0, nlb))
        run_cmd(sim, device, read(0, nlb))
        run_cmd(sim, device, write(device.zones.zones[1].zslba, nlb))
        events = tracer.events()
        commands = [e for e in events if e.cat == "command"]
        assert len(commands) == 3
        assert {c.args["opcode"] for c in commands} == {
            "append", "read", "write"}
        assert tracer._cmd_seq == 3
        # Layer spans carry the command ids of those commands.
        cids = {c.args["cid"] for c in commands}
        layer_cids = {e.args.get("cid") for e in events
                      if e.cat in ("controller", "nand", "buffer")}
        assert cids <= layer_cids

    def test_zone_transitions_recorded_as_instants(self):
        tracer = Tracer()
        sim, device = make_device(tracer=tracer)
        nlb = device.namespace.lbas(8192)
        run_cmd(sim, device, append(0, nlb))
        run_cmd(sim, device, Command(Opcode.ZONE_MGMT, slba=0,
                                     action=ZoneAction.RESET))
        names = [e.name for e in tracer.events() if e.cat == "zone"]
        assert "EMPTY->IMPLICIT_OPEN" in names
        assert any(name.endswith("->EMPTY") for name in names)

    def test_trace_timestamps_are_monotonic_in_export(self):
        tracer, _ = run_self_profile()
        buf = io.StringIO()
        count = tracer.write_jsonl(buf)
        assert count == len(tracer)
        ts = [json.loads(line)["ts"] for line in buf.getvalue().splitlines()]
        assert ts == sorted(ts)

    def test_device_metrics_published(self):
        registry = MetricsRegistry()
        sim, device = make_device(metrics=registry)
        nlb = device.namespace.lbas(8192)
        run_cmd(sim, device, append(0, nlb))
        run_cmd(sim, device, read(0, nlb))
        snap = registry.snapshot()
        assert snap["device.completed.append"] == 1
        assert snap["device.completed.read"] == 1
        assert snap["nand.pages_read"] >= 1
        assert registry.histogram(
            "device.latency_ns.read", DEFAULT_LATENCY_BUCKETS_NS).total == 1
        assert "device.latency_ns.read" in registry.table()


class TestProfile:
    def test_union_merges_overlaps(self):
        assert _union_ns([(0, 10), (5, 15)]) == 15
        assert _union_ns([(0, 10), (20, 30)]) == 20
        assert _union_ns([(0, 10), (2, 8)]) == 10
        assert _union_ns([]) == 0

    def test_parallel_fanout_counted_once(self):
        # Eight concurrent per-die spans plus the covering fanout span
        # must attribute exactly the fanout's wall time to "nand".
        tracer = Tracer()
        cid = tracer.begin_command("read")
        tracer.span("command", "read", 0, 100, cid=cid, opcode="read")
        tracer.span("nand", "read.fanout", 10, 60, cid=cid)
        for die in range(8):
            tracer.span("nand", "read.page", 10, 55, track=f"die{die}",
                        cid=cid, die=die)
        breakdown = LayerBreakdown.from_tracer(tracer)
        assert breakdown.layer_ns["nand"] == 50
        assert breakdown.layer_share("nand") == pytest.approx(0.5)

    def test_self_profile_accounts_layers(self):
        _, breakdown = run_self_profile()
        assert sum(len(durations) for durations
                   in breakdown.command_durations.values()) == 32 + 16 + 1
        assert set(breakdown.command_durations) == {
            "append", "read", "zone_mgmt"}
        # Reads must show NAND time; appends buffer time; reset firmware.
        assert breakdown.layer_ns["nand"] > 0
        assert breakdown.layer_ns["buffer"] > 0
        assert breakdown.layer_ns["firmware"] > 0
        # No layer can exceed total end-to-end command time.
        for layer, ns in breakdown.layer_ns.items():
            assert ns <= breakdown.total_command_ns, layer
        table = breakdown.table()
        assert "per-layer attribution" in table and "firmware" in table


class TestSatellites:
    def test_latency_cache_invalidated_on_write(self):
        stats = LatencyStats()
        stats.record(100)
        stats.record(200)
        assert stats.asarray().max() == 200
        stats.record(900)  # reads see every later write
        assert stats.asarray().max() == 900 and stats.count == 3
        other = LatencyStats()
        other.record(50)
        for latency in other.asarray().tolist():
            stats.record(latency)
        assert stats.asarray().min() == 50

    def test_timeseries_idle_fraction(self):
        def idle(ts):
            # (spanned intervals, empty ones, their fraction)
            values = ts.bandwidth_values().tolist()
            zero = values.count(0.0)
            return len(values), zero, zero / len(values) if values else 0.0

        ts = TimeSeries(interval_ns=100)
        ts.record(50, 4096)    # bucket 0
        ts.record(350, 4096)   # bucket 3; buckets 1-2 empty
        interval_count, zero_intervals, idle_fraction = idle(ts)
        assert interval_count == 4
        assert zero_intervals == 2
        assert idle_fraction == pytest.approx(0.5)
        interval_count, _, idle_fraction = idle(TimeSeries(interval_ns=100))
        assert idle_fraction == 0.0 and interval_count == 0

    def test_bandwidth_values_dtype_stable_when_empty(self):
        ts = TimeSeries(interval_ns=100)
        assert ts.bandwidth_values().dtype == np.float64
        ts.record(10, 4096)
        assert ts.bandwidth_values().dtype == np.float64


def _fig2b_config(**extra):
    return ExperimentConfig(point_runtime_ns=ms(2), ramp_ns=ms(0.4),
                            num_zones=16, **extra)


class TestTracingDeterminism:
    def test_traced_run_identical_to_untraced(self):
        plain = run_experiment("fig2b", _fig2b_config())
        tracer = Tracer()
        registry = MetricsRegistry()
        traced = run_experiment(
            "fig2b", _fig2b_config(tracer=tracer, metrics=registry))
        assert plain.rows == traced.rows
        assert len(tracer) > 0
        assert registry.snapshot()["device.completed.write"] > 0


#: sha256 of the ``repro --fast run fig2b --trace`` JSON-lines file,
#: recorded at commit 325f0f2, before traced runs moved onto the
#: execution engine. Tracing must neither perturb the simulation nor
#: change what it records; a deliberate change to the trace schema or to
#: fig2b updates this digest in the same commit and says why.
FIG2B_FAST_TRACE_SHA256 = (
    "e71938f5b2edaa59a7de77bcb1dd7cca7c73bfc62686a33bab0ed460ed09b7c8"
)


class TestTraceOracle:
    @pytest.mark.parametrize("extra", [[], ["--metrics"]])
    def test_fast_fig2b_trace_digest_is_pinned(self, tmp_path, capsys, extra):
        from repro.__main__ import main

        path = tmp_path / "fig2b.jsonl"
        assert main(["--fast", "run", "fig2b", "--trace", str(path)] + extra) == 0
        capsys.readouterr()
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == FIG2B_FAST_TRACE_SHA256
