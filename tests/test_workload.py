"""Tests for the workload engine (jobs, patterns, pacing, runner)."""

import math

import pytest

from repro.sim import Simulator, ms, sec, us
from repro.stacks import IoUringStack, SpdkStack
from repro.workload import (
    BACKOFF,
    IoKind,
    JobRunner,
    JobSpec,
    LatencyStats,
    Pattern,
    RatePacer,
    TimeSeries,
    ZoneAppendCursor,
    ZoneWriteCursor,
)

from .util import make_device

KIB = 1024


class TestJobSpec:
    def test_defaults_and_name(self):
        job = JobSpec(op=IoKind.WRITE, block_size=4 * KIB, runtime_ns=ms(10))
        assert job.name == "write-4k-qd1"
        assert job.iodepth == 1 and job.numjobs == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            JobSpec(op="erase", block_size=4 * KIB, runtime_ns=ms(1))
        with pytest.raises(ValueError):
            JobSpec(op=IoKind.READ, block_size=1000, runtime_ns=ms(1))
        with pytest.raises(ValueError):
            JobSpec(op=IoKind.READ, block_size=4 * KIB, runtime_ns=0)
        with pytest.raises(ValueError):
            JobSpec(op=IoKind.READ, block_size=4 * KIB, runtime_ns=ms(1), ramp_ns=ms(1))
        with pytest.raises(ValueError):
            JobSpec(op=IoKind.APPEND, block_size=4 * KIB, runtime_ns=ms(1),
                    pattern=Pattern.RANDOM)

    def test_zone_per_thread_split(self):
        job = JobSpec(op=IoKind.WRITE, block_size=4 * KIB, runtime_ns=ms(1),
                      numjobs=3, zones=[5, 6, 7], zone_per_thread=True)
        assert job.zones_for_thread(0) == [5]
        assert job.zones_for_thread(2) == [7]

    def test_zone_per_thread_needs_enough_zones(self):
        with pytest.raises(ValueError):
            JobSpec(op=IoKind.WRITE, block_size=4 * KIB, runtime_ns=ms(1),
                    numjobs=3, zones=[1, 2], zone_per_thread=True)


class TestStats:
    def test_latency_percentiles(self):
        stats = LatencyStats()
        for v in range(1, 101):
            stats.record(v * 1000)
        assert stats.count == 100
        assert stats.mean_us == pytest.approx(50.5)
        assert stats.percentile_us(95) == pytest.approx(95.05, rel=0.01)
        assert stats.min_ns == 1000 and stats.max_ns == 100_000
        with pytest.raises(ValueError, match="negative"):
            stats.record(-1)
        assert stats.count == 100

    def test_latency_empty_degrades_to_nan(self):
        # Zero samples is legitimate under fault injection (an aggressive
        # profile can abort every command), so summaries degrade to NaN
        # instead of raising; min/max stay strict.
        empty = LatencyStats()
        assert math.isnan(empty.mean_ns)
        assert math.isnan(empty.percentile_ns(95))
        with pytest.raises(ValueError):
            empty.min_ns

    def test_latency_merge(self):
        a, b = LatencyStats(), LatencyStats()
        a.record(10)
        b.record(20)
        a.merge(b)
        assert a.count == 2

    def test_timeseries_bandwidth(self):
        ts = TimeSeries(interval_ns=ms(100))
        for i in range(10):
            ts.record(ms(100) * i + 1, 1024 * 1024)  # 1 MiB per 100 ms
        series = ts.bandwidth_series()
        assert len(series) == 10
        assert all(v == pytest.approx(10.0) for _, v in series)  # 10 MiB/s

    def test_timeseries_gaps_are_zero(self):
        ts = TimeSeries(interval_ns=ms(10))
        ts.record(ms(5), 1)
        ts.record(ms(35), 1)
        values = [v for _, v in ts.bandwidth_series()]
        assert len(values) == 4
        assert values[1] == 0.0 and values[2] == 0.0


class TestRatePacer:
    def test_paces_to_configured_rate(self):
        sim = Simulator()
        pacer = RatePacer(sim, rate_bps=1_000_000)  # 1 MB/s
        # Without the clock advancing, the i-th reservation starts i*0.1 s
        # in the future: delays are 0, 0.1, ..., 0.9 s.
        delays = [pacer.delay_for(100_000) for _ in range(10)]
        assert delays == [round(i * 0.1 * sec(1)) for i in range(10)]

    def test_paced_loop_hits_target_rate(self):
        sim = Simulator()
        pacer = RatePacer(sim, rate_bps=10_000_000)  # 10 MB/s
        sent = [0]

        def producer():
            while sim.now < sec(1):
                delay = pacer.delay_for(100_000)
                if delay:
                    yield sim.timeout(delay)
                sent[0] += 100_000

        sim.run(until=sim.process(producer()))
        assert sent[0] == pytest.approx(10_000_000, rel=0.02)

    def test_no_delay_when_under_rate(self):
        sim = Simulator()
        sim.timeout(sec(1))
        sim.run()
        pacer = RatePacer(sim, rate_bps=1_000_000)
        assert pacer.delay_for(1000) == 0


class TestCursors:
    def test_write_cursor_follows_wp(self):
        sim, dev = make_device()
        cursor = ZoneWriteCursor(dev, zones=[0], nlb=4)
        cmd, _ = cursor.next_target()
        assert cmd.slba == 0 and cmd.nlb == 4
        cmd, _ = cursor.next_target()
        assert cmd.slba == 4

    def test_write_cursor_moves_to_next_zone_when_full(self):
        sim, dev = make_device()
        zone = dev.zones.zones[0]
        cap = zone.cap_lbas
        cursor = ZoneWriteCursor(dev, zones=[0, 1], nlb=cap)
        c1, _ = cursor.next_target()
        assert c1.slba == zone.zslba
        dev.zones.admit_write(zone, c1.slba, c1.nlb)  # simulate completion
        c2, _ = cursor.next_target()
        assert c2.slba == dev.zones.zones[1].zslba

    def test_write_cursor_requests_reset_when_all_full(self):
        sim, dev = make_device()
        cap = dev.zones.zones[0].cap_lbas
        for z in (0, 1):
            dev.force_fill(z, cap)
        cursor = ZoneWriteCursor(dev, zones=[0, 1], nlb=4)
        cmd, reset_zone = cursor.next_target()
        assert cmd is None and reset_zone in (0, 1)

    def test_append_cursor_reserves_capacity(self):
        sim, dev = make_device()
        zone = dev.zones.zones[0]
        cursor = ZoneAppendCursor(dev, zones=[0], nlb=zone.cap_lbas // 2)
        c1, _ = cursor.next_target()
        c2, _ = cursor.next_target()
        assert c1 is not None and c2 is not None
        c3, reset_zone = cursor.next_target()
        # Both halves reserved: a third append must not be issued, but the
        # condition is transient (in-flight appends will release it), so
        # the cursor signals back-off rather than exhaustion.
        assert c3 is BACKOFF and reset_zone is None


class TestJobRunner:
    def test_sequential_write_job_measures_iops(self):
        sim, dev = make_device()
        stack = SpdkStack(dev)
        job = JobSpec(op=IoKind.WRITE, block_size=4 * KIB, runtime_ns=ms(5),
                      ramp_ns=ms(1), zones=[0])
        result = JobRunner(dev, stack, job).run()
        assert result.ops > 100
        # QD1 SPDK writes at ~11.36 us -> ~88 KIOPS.
        assert result.kiops == pytest.approx(88, rel=0.08)
        assert result.latency.mean_us == pytest.approx(11.36, rel=0.05)

    def test_qd_scaling_append(self):
        sim, dev = make_device()
        stack = SpdkStack(dev)
        r1 = JobRunner(dev, stack, JobSpec(
            op=IoKind.APPEND, block_size=4 * KIB, runtime_ns=ms(5),
            zones=[0], iodepth=1)).run()
        sim2, dev2 = make_device()
        r4 = JobRunner(dev2, SpdkStack(dev2), JobSpec(
            op=IoKind.APPEND, block_size=4 * KIB, runtime_ns=ms(5),
            zones=[0], iodepth=4)).run()
        assert r4.kiops > 1.5 * r1.kiops
        assert r4.kiops == pytest.approx(132, rel=0.1)  # Obs #6 cap

    def test_rate_limited_write_job(self):
        sim, dev = make_device()
        stack = SpdkStack(dev)
        rate = 50 * 1024 * 1024  # 50 MiB/s
        job = JobSpec(op=IoKind.WRITE, block_size=16 * KIB, runtime_ns=ms(50),
                      zones=[0, 1], rate_limit_bps=rate)
        result = JobRunner(dev, stack, job).run()
        assert result.bandwidth_mibs == pytest.approx(50, rel=0.1)

    def test_write_job_resets_zones_when_wrapping(self):
        sim, dev = make_device()
        stack = SpdkStack(dev)
        # Tiny zone set + long runtime forces wrap-around resets.
        job = JobSpec(op=IoKind.WRITE, block_size=64 * KIB, runtime_ns=ms(80),
                      zones=[0, 1])
        result = JobRunner(dev, stack, job).run()
        assert result.resets >= 1
        assert result.reset_latency.count >= 1

    def test_random_read_job(self):
        sim, dev = make_device()
        stack = SpdkStack(dev)
        for z in (0, 1):
            dev.force_fill(z, dev.zones.zones[z].cap_lbas)
        job = JobSpec(op=IoKind.READ, block_size=4 * KIB, runtime_ns=ms(5),
                      pattern=Pattern.RANDOM, zones=[0, 1], iodepth=8)
        result = JobRunner(dev, stack, job).run()
        assert result.ops > 100
        assert not result.errors

    def test_runner_cannot_start_twice(self):
        sim, dev = make_device()
        runner = JobRunner(dev, SpdkStack(dev), JobSpec(
            op=IoKind.WRITE, block_size=4 * KIB, runtime_ns=ms(1), zones=[0]))
        runner.run()
        with pytest.raises(RuntimeError):
            runner.start()

    def test_job_without_target_rejected(self):
        sim, dev = make_device()
        runner = JobRunner(dev, SpdkStack(dev), JobSpec(
            op=IoKind.WRITE, block_size=4 * KIB, runtime_ns=ms(1)))
        with pytest.raises(ValueError):
            runner.run()

    def test_mq_deadline_intra_zone_write_merging(self):
        """Obs #7 mechanism: QD writes through mq-deadline merge and
        beat the per-command IOPS cap."""
        from .util import quiet_profile

        # Zones large enough that the 10 ms run never wraps (no resets).
        profile = quiet_profile(
            num_zones=8, zone_size_bytes=64 * 1024 * KIB,
            zone_cap_bytes=48 * 1024 * KIB,
        )
        sim, dev = make_device(profile)
        stack = IoUringStack(dev, scheduler="mq-deadline")
        job = JobSpec(op=IoKind.WRITE, block_size=4 * KIB, runtime_ns=ms(10),
                      zones=[0], iodepth=32)
        result = JobRunner(dev, stack, job).run()
        assert stack.stats.merge_fraction > 0.5
        assert result.kiops > 186  # above the unmerged per-command cap


class TestRunnerResetFailure:
    """Dead (retired) zones and failed resets in the runner.

    The write/append cursors skip READ_ONLY/OFFLINE zones outright (a
    retired zone can neither be written nor reset), so a job whose every
    target zone is dead terminates cleanly with zero I/O. A reset that
    *does* fail — the zone was retired after the cursor asked for the
    reset but before it was issued — must count as an error, not a
    reset; that path is driven directly.
    """

    def _run_on_stuck_zones(self, op):
        from repro.zns import ZoneState

        sim, dev = make_device()
        for z in (0, 1):
            dev.force_fill(z, dev.zones.zones[z].cap_lbas)
            dev.inject_zone_failure(z, ZoneState.READ_ONLY)
        job = JobSpec(op=op, block_size=64 * KIB, runtime_ns=ms(5),
                      zones=[0, 1])
        return JobRunner(dev, SpdkStack(dev), job).run()

    def test_write_job_on_dead_zones_terminates_cleanly(self):
        result = self._run_on_stuck_zones(IoKind.WRITE)
        assert result.ops == 0
        assert result.resets == 0 and result.reset_latency.count == 0
        assert not result.errors  # skipped, never issued

    def test_append_job_on_dead_zones_terminates_cleanly(self):
        result = self._run_on_stuck_zones(IoKind.APPEND)
        assert result.ops == 0
        assert result.resets == 0 and result.reset_latency.count == 0
        assert not result.errors

    def test_failed_reset_counted_as_error(self):
        from repro.hostif import Status
        from repro.zns import ZoneState

        sim, dev = make_device()
        dev.force_fill(0, dev.zones.zones[0].cap_lbas)
        dev.inject_zone_failure(0, ZoneState.READ_ONLY)
        job = JobSpec(op=IoKind.WRITE, block_size=64 * KIB, runtime_ns=ms(5),
                      zones=[0])
        runner = JobRunner(dev, SpdkStack(dev), job)
        runner._ramp_end_ns = 0  # _reset_zone reads it for latency gating
        sim.run(until=sim.process(runner._reset_zone(object(), 0)))
        assert runner.result.errors == {Status.INVALID_ZONE_STATE_TRANSITION: 1}
        assert runner.result.resets == 0 and runner.result.reset_latency.count == 0

class TestBackoffSurvival:
    def test_high_qd_append_slots_survive_zone_boundaries(self):
        """Regression for the slot-death bug: at high QD every slot used
        to see (None, None) at a zone boundary (reservations still in
        flight) and retire, collapsing measured concurrency. With the
        BACKOFF protocol the full queue depth survives multiple
        fill/reset cycles and holds the ~132 KIOPS append cap."""
        sim, dev = make_device()
        job = JobSpec(op=IoKind.APPEND, block_size=4 * KIB, runtime_ns=ms(40),
                      ramp_ns=ms(5), zones=[0], iodepth=16)
        result = JobRunner(dev, SpdkStack(dev), job,
                           ts_interval_ns=ms(2)).run()
        # 6 MiB zone at ~132 KIOPS x 4 KiB fills in ~11.6 ms: the run
        # crosses several fill/reset cycles.
        assert result.resets >= 2
        assert not result.errors
        # After the first boundary the refill must still saturate the
        # QD-cap (~132 KIOPS = 516 MiB/s); a lone surviving QD1 slot
        # would top out near 250 MiB/s.
        values = [v for _, v in result.timeseries.bandwidth_series()]
        assert max(values[len(values) // 2:]) > 450
