"""Unit tests for the NAND flash substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conv.device import PRIO_GC_URGENT
from repro.device.core import PRIO_IO, PRIO_MGMT
from repro.faults.plan import FaultInjector, FaultPlan
from repro.faults.wear import WearCurve
from repro.flash import KIB, MIB, FlashBackend, FlashGeometry, NandTiming
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.sim import Simulator, us

from .flash_reference import ReferenceBackend


def small_geometry(**overrides) -> FlashGeometry:
    base = dict(
        channels=2,
        dies_per_channel=2,
        planes_per_die=2,
        blocks_per_plane=4,
        pages_per_block=8,
        page_size=16 * KIB,
    )
    base.update(overrides)
    return FlashGeometry(**base)


class TestGeometry:
    def test_derived_sizes(self):
        geo = small_geometry()
        assert geo.total_dies == 4
        assert geo.total_planes == 8
        assert geo.block_bytes == 8 * 16 * KIB
        assert geo.plane_bytes == 4 * geo.block_bytes
        assert geo.die_bytes == 2 * geo.plane_bytes
        assert geo.capacity_bytes == 4 * geo.die_bytes
        assert geo.total_blocks == 8 * 4
        assert geo.total_pages == geo.total_blocks * 8

    def test_die_index_flattening_is_bijective(self):
        geo = small_geometry()
        seen = set()
        for ch in range(geo.channels):
            for die in range(geo.dies_per_channel):
                idx = geo.die_index(ch, die)
                assert geo.channel_of_die(idx) == ch
                seen.add(idx)
        assert seen == set(range(geo.total_dies))

    def test_die_index_bounds_checked(self):
        geo = small_geometry()
        with pytest.raises(ValueError):
            geo.die_index(2, 0)
        with pytest.raises(ValueError):
            geo.die_index(0, 2)
        with pytest.raises(ValueError):
            geo.channel_of_die(geo.total_dies)

    def test_pages_needed_rounds_up(self):
        geo = small_geometry()
        assert -(-0 // geo.page_size) == 0
        assert -(-1 // geo.page_size) == 1
        assert -(-(16 * KIB) // geo.page_size) == 1
        assert -(-(16 * KIB + 1) // geo.page_size) == 2

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            small_geometry(channels=0)
        with pytest.raises(ValueError):
            small_geometry(page_size=1000)  # not multiple of 512

    def test_zn540_like_geometry_bandwidth(self):
        """The default geometry + timing should land near the paper's
        1,155 MiB/s device write limit."""
        geo = FlashGeometry()
        timing = NandTiming()
        bw_mib = timing.program_bandwidth(geo) / MIB
        assert 1_050 <= bw_mib <= 1_250


class TestNandTiming:
    def test_defaults_are_positive(self):
        t = NandTiming()
        assert t.read_ns > 0 and t.program_ns > 0 and t.erase_ns > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            NandTiming(read_ns=0)
        with pytest.raises(ValueError):
            NandTiming(program_ns=-5)

    def test_read_rate(self):
        geo = small_geometry()
        t = NandTiming(read_ns=us(50))
        assert geo.total_dies * 1e9 / t.read_ns == pytest.approx(4 / 50e-6)


class TestBackend:
    def make(self, **kw):
        sim = Simulator()
        geo = small_geometry()
        timing = NandTiming(read_ns=us(60), program_ns=us(400), erase_ns=us(3000))
        return sim, FlashBackend(sim, geo, timing, **kw)

    def test_transfer_time_scales_with_bytes(self):
        sim, backend = self.make(channel_bandwidth=512 * MIB)
        one = backend.transfer_ns(4 * KIB)
        four = backend.transfer_ns(16 * KIB)
        assert four == pytest.approx(4 * one, rel=0.01)

    def test_single_read_latency(self):
        sim, backend = self.make()
        done = backend.read(0)
        sim.run(until=done)
        expected = us(60) + backend.transfer_ns(16 * KIB)
        assert sim.now == expected
        assert backend.counters.pages_read == 1

    def test_single_program_latency(self):
        sim, backend = self.make()
        done = backend.program(0)
        sim.run(until=done)
        assert sim.now == backend.transfer_ns(16 * KIB) + us(400)
        assert backend.counters.pages_programmed == 1

    def test_erase_occupies_die(self):
        sim, backend = self.make()
        done = backend.erase(3)
        sim.run(until=done)
        assert sim.now == us(3000)
        assert backend.counters.blocks_erased == 1

    def test_programs_to_same_die_serialize(self):
        sim, backend = self.make()
        backend.program(0)
        d2 = backend.program(0)
        sim.run(until=d2)
        xfer = backend.transfer_ns(16 * KIB)
        # Second program waits for the first: bus transfers pipeline, but
        # the die runs one program at a time.
        assert sim.now >= 2 * us(400) + xfer

    def test_programs_to_different_channels_run_in_parallel(self):
        sim, backend = self.make()
        geo = backend.geometry
        die_a = geo.die_index(0, 0)
        die_b = geo.die_index(1, 0)
        backend.program(die_a)
        backend.program(die_b)
        sim.run()
        xfer = backend.transfer_ns(16 * KIB)
        assert sim.now == xfer + us(400)

    def test_priority_read_overtakes_queued_background_work(self):
        sim, backend = self.make()
        finish_order = []

        def tag(name):
            return lambda op: finish_order.append(name)

        # Saturate die 0 with background (low-priority) erases, then issue
        # a high-priority read: the read must finish before the queued
        # erases that arrived earlier.
        backend.erase(0, priority=10, done=tag("erase1"))
        backend.erase(0, priority=10, done=tag("erase2"))
        backend.erase(0, priority=10, done=tag("erase3"))
        backend.read(0, priority=0, done=tag("read"))
        sim.run()
        assert finish_order.index("read") < finish_order.index("erase2")

    def test_busy_time_accounting(self):
        sim, backend = self.make()
        done = backend.program(2)
        sim.run(until=done)
        assert backend.die_busy_ns(2) == us(400)
        assert backend.die_busy_ns(0) == 0

    def test_completion_event_fires_with_the_record(self):
        sim, backend = self.make()
        token = [False, False]
        done = backend.program(1, token=token)
        assert not done.triggered
        token[0] = True  # cancelled before its die starts it
        assert sim.run(until=done).result == -1
        assert token == [True, False]
        # It crossed its bus, then never held the die.
        assert sim.now == backend.transfer_ns(16 * KIB)
        assert backend.counters.pages_programmed == 0
        assert backend.die_busy_ns(1) == 0

    def test_completion_callable_gets_the_record(self):
        sim, backend = self.make()
        seen = []
        backend.read(0, transfer_bytes=4 * KIB, cid=7, tag="t",
                     done=lambda op: seen.append((op.tag, op.cid, op.start, sim.now)))
        backend.read(0, done=lambda op: seen.append((op.tag, op.cid, op.start, sim.now)))
        sim.run()
        first = us(60) + backend.transfer_ns(4 * KIB)
        assert seen == [("t", 7, 0, first),
                        (None, 0, us(60), 2 * us(60) + backend.transfer_ns(16 * KIB))]

    def test_invalid_channel_bandwidth_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            FlashBackend(sim, small_geometry(), NandTiming(), channel_bandwidth=0)

    def test_negative_transfer_rejected(self):
        _, backend = self.make()
        with pytest.raises(ValueError):
            backend.transfer_ns(-1)


#: A plan that draws often on every kind of operation.
_FAULTY = FaultPlan(
    read_disturb_curve=WearCurve(base=0.3), read_retry_max=3,
    read_uncorrectable_frac=0.3, program_fail_curve=WearCurve(base=0.3),
    program_retry_max=2, erase_fail_curve=WearCurve(base=0.4),
)

_OPS = st.lists(st.tuples(
    st.integers(0, 20),                          # arrival time
    st.sampled_from(["read", "program", "erase"]),
    st.integers(0, 3),                           # die (mod the die count)
    st.sampled_from([PRIO_IO, PRIO_GC_URGENT, PRIO_MGMT]),
    st.sampled_from([None, 4 * KIB, 8 * KIB]),   # a read's transfer bytes
    st.booleans(),                               # a program's power-loss token
    st.booleans(),                               # complete through an Event
    st.sampled_from([None, 0, 1]),               # wear unit
), min_size=1, max_size=30)


def _run(server: bool, channels: int, dies: int, read_ns: int,
         program_ns: int, erase_ns: int, page_xfer: int, ops, cuts,
         seed: int, armed: bool) -> dict:
    """Run one generated program on the servers or on the reference.

    Each operation arrives from its own process, which requests the
    first unit in its own step on both sides: the reference runs the
    generator inline. A power cut cancels up to ``count`` pending,
    unstarted tokens, newest first, as the devices' cut handlers do.
    """
    sim = Simulator()
    geometry = small_geometry(channels=channels, dies_per_channel=dies)
    timing = NandTiming(read_ns=read_ns, program_ns=program_ns, erase_ns=erase_ns)
    bandwidth = round(geometry.page_size * 1e9 / page_xfer)
    tracer = Tracer()
    metrics = MetricsRegistry()
    injector = (FaultInjector(_FAULTY, np.random.default_rng(seed), metrics)
                if armed else None)
    backend = (FlashBackend if server else ReferenceBackend)(
        sim, geometry, timing, bandwidth, tracer=tracer, faults=injector)
    log = []
    pending = []

    def arrive(index, at, kind, die, priority, nbytes, tokened, evented, unit):
        yield at
        die %= geometry.total_dies
        wear = injector.wear.unit(unit) if armed and unit is not None else None
        token = [False, False] if kind == "program" and tokened else None
        if token is not None:
            pending.append(token)

        def finish(start, result):
            if token is not None:
                pending.remove(token)
            log.append((index, kind, start, sim.now, bool(result)
                        if kind != "program" else result))

        event = done = None
        if evented:
            # The waiter cannot see the start; it checks the Event's
            # place in the event order and its value.
            event = sim.event()
            done = event.succeed

            def waiter():
                value = yield event
                finish(None, value.result if server else value)
            sim.process(waiter())
        if server:
            if done is None:
                def done(op):
                    finish(op.start, op.result)
            if kind == "read":
                backend.read(die, priority, nbytes, cid=index, wear=wear, done=done)
            elif kind == "program":
                backend.program(die, priority, cid=index, token=token, wear=wear,
                                done=done)
            else:
                backend.erase(die, priority, cid=index, wear=wear, done=done)
            return
        stamp = []
        if kind == "read":
            fault_out = []
            yield from backend.read_page(die, priority, nbytes, cid=index,
                                         fault_out=fault_out, wear=wear,
                                         stamp=stamp)
            result = bool(fault_out)
        elif kind == "program":
            result = yield from backend.program_page(die, priority, cid=index,
                                                     cancel=token, wear=wear,
                                                     stamp=stamp)
        else:
            result = yield from backend.erase_block(die, priority, cid=index,
                                                    wear=wear, stamp=stamp)
        if event is None:
            finish(stamp[0], result)
        else:
            event.succeed(result)

    def cut(at, count):
        yield at
        for token in reversed(pending):
            if count == 0:
                break
            if not token[1]:
                token[0] = True
                count -= 1

    for index, op in enumerate(ops):
        sim.process(arrive(index, *op))
    for at, count in cuts:
        sim.process(cut(at, count))
    sim.run()
    return {
        "log": log,
        "spans": [(e.name, e.ts, e.dur, e.track, e.args) for e in tracer._events],
        "busy": [backend.die_busy_ns(d) for d in range(geometry.total_dies)],
        "counters": (backend.counters.pages_read, backend.counters.pages_programmed,
                     backend.counters.blocks_erased),
        "metrics": metrics.snapshot(),
        # The raw state alone cannot tell apart two runs that served
        # different counts from one block; the block position can.
        "rng": (injector._draws._rng.bit_generator.state, injector._draws._pos)
               if armed else None,
        "wear": injector.wear.snapshot() if armed else None,
        "now": sim.now,
    }


@settings(max_examples=300, deadline=None)
@given(
    channels=st.integers(1, 2), dies=st.integers(1, 2),
    read_ns=st.integers(1, 4), program_ns=st.integers(1, 6),
    erase_ns=st.integers(1, 8), page_xfer=st.integers(1, 3),
    ops=_OPS,
    cuts=st.lists(st.tuples(st.integers(0, 20), st.integers(1, 3)), max_size=3),
    seed=st.integers(0, 2**16), armed=st.booleans(),
)
def test_servers_match_reference(channels, dies, read_ns, program_ns, erase_ns,
                                 page_xfer, ops, cuts, seed, armed):
    """The die and bus servers time, order, account and draw faults for
    every record exactly as one ``Resource``-holding process per page
    operation does (``tests/flash_reference.py``)."""
    args = (channels, dies, read_ns, program_ns, erase_ns, page_xfer, ops,
            cuts, seed, armed)
    assert _run(True, *args) == _run(False, *args)
