"""Cross-validation: analytical predictions vs simulated measurements."""

import math

import pytest

from repro.hostif import Opcode
from repro.sim import ms
from repro.stacks import SpdkStack
from repro.workload import IoKind, JobRunner, JobSpec
from repro.zns.profiles import zn540

from . import analytic
from .util import make_device, quiet_profile

KIB = 1024
MIB = 1024 * 1024


class TestCaps:
    def test_paper_iops_caps(self):
        profile = zn540()
        assert analytic.iops_cap(profile, Opcode.WRITE, 4 * KIB) == pytest.approx(186_000, rel=0.01)
        assert analytic.iops_cap(profile, Opcode.APPEND, 4 * KIB) == pytest.approx(132_000, rel=0.01)
        assert analytic.iops_cap(profile, Opcode.READ, 4 * KIB) == pytest.approx(424_000, rel=0.01)

    def test_device_write_limit(self):
        profile = zn540()
        limit = analytic.device_write_limit_bps(profile) / MIB
        assert 1_100 <= limit <= 1_160

    def test_qd1_latency_matches_simulation(self):
        profile = quiet_profile()
        for opcode, op in ((Opcode.WRITE, IoKind.WRITE), (Opcode.APPEND, IoKind.APPEND)):
            predicted = analytic.qd1_latency_ns(profile, opcode, 4 * KIB)
            sim, dev = make_device(profile)
            job = JobSpec(op=op, block_size=4 * KIB, runtime_ns=ms(2),
                          ramp_ns=ms(0.3), zones=[0])
            measured = JobRunner(dev, SpdkStack(dev), job).run().latency.mean_ns
            stack_overhead = 560
            assert measured == pytest.approx(predicted + stack_overhead, rel=0.02)

    def test_closed_loop_throughput_curve(self):
        # Appends: linear until the cap, then flat (Fig. 4a shape).
        profile = zn540()
        cap = analytic.iops_cap(profile, Opcode.APPEND, 4 * KIB)
        latency = analytic.qd1_latency_ns(profile, Opcode.APPEND, 4 * KIB)
        t1 = analytic.closed_loop_throughput(1, latency, cap)
        t2 = analytic.closed_loop_throughput(2, latency, cap)
        t8 = analytic.closed_loop_throughput(8, latency, cap)
        assert t2 == pytest.approx(2 * t1, rel=0.01)
        assert t8 == pytest.approx(cap)

    def test_closed_loop_validation(self):
        with pytest.raises(ValueError):
            analytic.closed_loop_throughput(0, 1000, 1000)


class TestTailAndTransitions:
    def test_flood_read_tail_matches_paper(self):
        tail_ms = analytic.flood_read_tail_ns(zn540()) / 1e6
        assert tail_ms == pytest.approx(99, rel=0.03)  # paper: 98.04 ms

    def test_finish_latency_endpoints(self):
        profile = zn540()
        empty = analytic.finish_latency_ns(profile, 0.0) / 1e6
        full = analytic.finish_latency_ns(profile, 1.0) / 1e6
        assert empty == pytest.approx(908, rel=0.02)  # paper: 907.51 ms
        assert full == pytest.approx(3.07, rel=0.01)

    def test_finish_latency_validation(self):
        with pytest.raises(ValueError):
            analytic.finish_latency_ns(zn540(), 1.5)

    def test_reset_inflation_matches_fig7(self):
        profile = zn540()
        # QD1 write thread: ~88 K ops/s -> paper's +78%.
        factor = analytic.reset_inflation_factor(profile, Opcode.WRITE, 88_000)
        assert factor == pytest.approx(1.78, rel=0.05)
        # QD1 append thread: ~64 K ops/s -> ~+71%.
        factor = analytic.reset_inflation_factor(profile, Opcode.APPEND, 64_000)
        assert factor == pytest.approx(1.71, rel=0.06)

    def test_reset_inflation_saturation_guard(self):
        with pytest.raises(ValueError):
            analytic.reset_inflation_factor(zn540(), Opcode.WRITE, 10**9)


class TestGcModel:
    def test_lambert_w_identity(self):
        for x in (-0.3, -0.1, 0.0, 0.5, 2.0):
            w = analytic._lambert_w(x)
            assert w * math.exp(w) == pytest.approx(x, abs=1e-9)

    def test_lambert_w_domain(self):
        with pytest.raises(ValueError):
            analytic._lambert_w(-1.0)

    def test_wa_increases_with_utilization(self):
        was = [analytic.greedy_gc_write_amplification(u) for u in (0.5, 0.7, 0.85, 0.92)]
        assert was == sorted(was)
        assert was[0] > 1.0

    def test_wa_validation(self):
        with pytest.raises(ValueError):
            analytic.greedy_gc_write_amplification(1.0)

    def test_wa_magnitude_for_experiment_utilization(self):
        # The Fig. 6 conventional device runs at 0.92 x 0.93 = 0.856
        # utilization of physical space: WA should land near the
        # simulation's measured ~2-3.
        wa = analytic.greedy_gc_write_amplification(0.856)
        assert 2.0 < wa < 4.0
