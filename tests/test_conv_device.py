"""Integration tests for the conventional SSD device model."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device import PRIO_IO
from repro.flash import KIB, MIB, FlashGeometry
from repro.flash.nand import NandTiming
from repro.hostif import Command, Opcode, Status
from repro.sim import SimulationError, Simulator, ms, sec, us
from repro.conv import ConvDevice, FtlFullError
from repro.conv import device as conv_device
from repro.conv.device import PRIO_GC_URGENT, _Copies, _Flush
from repro.faults import resolve
from repro.obs import MetricsRegistry, Tracer

from .conv_reference import ReferenceConvDevice
from .util import quiet_profile, read, run_cmd, write


def conv_profile(**overrides):
    """A small conventional-device profile (≈128 MiB raw flash)."""
    geometry = FlashGeometry(
        channels=4,
        dies_per_channel=2,
        planes_per_die=1,
        blocks_per_plane=64,
        pages_per_block=16,
        page_size=16 * KIB,
    )
    base = dict(geometry=geometry, write_buffer_bytes=4 * MIB)
    base.update(overrides)
    return quiet_profile(**base)


def make_conv(**overrides):
    sim = Simulator()
    device = ConvDevice(sim, conv_profile(**overrides))
    return sim, device


class TestBasicIo:
    def test_write_then_read(self):
        sim, dev = make_conv()
        assert run_cmd(sim, dev, write(0, 4)).ok
        assert run_cmd(sim, dev, read(0, 4)).ok
        assert dev.counters.completed[Opcode.WRITE] == 1
        assert dev.counters.completed[Opcode.READ] == 1

    def test_random_writes_accepted_anywhere(self):
        """Unlike ZNS, a conventional SSD takes writes at any LBA."""
        sim, dev = make_conv()
        capacity = dev.namespace.capacity_lbas
        for slba in (0, capacity // 2, capacity - 4, 17):
            assert run_cmd(sim, dev, write(slba, 4)).ok

    def test_out_of_range_rejected(self):
        sim, dev = make_conv()
        cpl = run_cmd(sim, dev, write(dev.namespace.capacity_lbas, 1))
        assert cpl.status is Status.LBA_OUT_OF_RANGE

    def test_append_not_supported(self):
        sim, dev = make_conv()
        with pytest.raises(ValueError):
            dev.submit(Command(Opcode.APPEND, slba=0, nlb=1))

    def test_write_qd1_latency_matches_zns_write_path(self):
        """Same hardware, same write-cache path: latency parity with ZNS."""
        sim, dev = make_conv()
        run_cmd(sim, dev, write(0, 1))
        cpl = run_cmd(sim, dev, write(4, 1))
        assert cpl.latency_ns == 5_380 + 610 + 4_800

    def test_unwritten_read_needs_no_nand(self):
        sim, dev = make_conv()
        cpl = run_cmd(sim, dev, read(0, 1))
        assert cpl.ok
        assert dev.backend.counters.pages_read == 0


class TestPrecondition:
    def test_precondition_maps_logical_space(self):
        sim, dev = make_conv()
        dev.precondition(1.0)
        assert dev.ftl.mapped_pages() == dev.ftl.logical_pages
        assert write_amplification(dev.ftl) == 1.0  # fill isn't counted

    def test_precondition_fraction(self):
        sim, dev = make_conv()
        dev.precondition(0.5)
        assert dev.ftl.mapped_pages() == pytest.approx(
            dev.ftl.logical_pages / 2, abs=1
        )

    def test_invalid_fraction_rejected(self):
        sim, dev = make_conv()
        with pytest.raises(ValueError):
            dev.precondition(1.5)

    def test_second_precondition_rejected(self):
        """A refill of a full device would run without GC; refuse it."""
        sim, dev = make_conv()
        dev.precondition(1.0)
        with pytest.raises(ValueError, match="pristine"):
            dev.precondition(1.0)

    def test_precondition_after_io_rejected(self):
        sim, dev = make_conv()
        dev.ftl.commit_write(0)
        dev.ftl.trim(0)
        with pytest.raises(ValueError, match="pristine"):
            dev.precondition(0.5)

    def test_precondition_with_bad_blocks_rejected(self):
        sim, dev = make_conv()
        dev.ftl.retire_block(0)
        with pytest.raises(ValueError, match="pristine"):
            dev.precondition(0.5)


def write_amplification(ftl) -> float:
    """Cumulative WA = (user + GC copies) / user pages; 1.0 before any
    user write."""
    if ftl.total_user_pages_written == 0:
        return 1.0
    return (ftl.total_user_pages_written + ftl.total_gc_pages_copied
            ) / ftl.total_user_pages_written


def block_slots(ftl, block: int) -> list[int]:
    """The logical page in each slot of block ``block`` (``-1`` none)."""
    base = block * ftl.pages_per_block
    return ftl._back[base:base + ftl.pages_per_block].tolist()


def ftl_state(ftl) -> dict:
    """Everything a preconditioned FTL carries into a measured run."""
    return {
        "back_maps": [(b, b // ftl.blocks_per_die, block_slots(ftl, b), ftl._write_slot[b],
                       ftl._valid[b]) for b in range(ftl.geometry.total_blocks)],
        "l2p": [ftl.lookup(p) for p in range(ftl.logical_pages)],
        "mapped": ftl.mapped_pages(),
        "free": [list(pool) for pool in ftl._free],
        "spare": [list(pool) for pool in ftl._spare],
        "user_active": [None if b < 0 else b for b in ftl._user_active],
        "gc_active": [None if b < 0 else b for b in ftl._gc_active],
        "die_cursor": ftl._die_cursor,
        "free_block_count": ftl.free_block_count,
        "counters": (ftl.total_user_pages_written, ftl.total_gc_pages_copied),
        "bad": sorted(ftl.bad_blocks),
        "remapped": sorted(ftl.remapped_blocks),
    }


def end_state(ftl) -> dict:
    """Everything a preconditioned FTL carries into a measured run, with
    the collectable set ``pick_victim`` chooses from."""
    state = ftl_state(ftl)
    state["collectable"] = sorted((ftl._valid[block], block)
                                  for block in np.flatnonzero(ftl._collectable()).tolist())
    return state


class TestPreconditionMemo:
    @pytest.fixture(autouse=True)
    def empty_memo(self):
        conv_device._preconditioned.clear()
        yield
        conv_device._preconditioned.clear()

    def preconditioned(self, seed=3, faults=None):
        dev = ConvDevice(Simulator(), conv_profile(), faults=faults)
        dev.precondition(0.9, steady_state_churn=1.0, seed=seed)
        return dev

    def test_hit_equals_fresh_precondition(self):
        fresh = self.preconditioned()
        assert len(conv_device._preconditioned) == 1
        restored = self.preconditioned()
        assert len(conv_device._preconditioned) == 1
        assert restored.ftl is not fresh.ftl
        assert ftl_state(restored.ftl) == ftl_state(fresh.ftl)
        restored.ftl.check_invariants()
        # The churn really ran GC: the state is not a plain fill.
        assert fresh.ftl.free_block_count < fresh.ftl.geometry.total_blocks
        assert any(0 < valid < write_slot for valid, write_slot
                   in zip(fresh.ftl._valid, fresh.ftl._write_slot))

    def test_mutating_a_restored_ftl_does_not_leak(self):
        fresh = self.preconditioned()
        expected = ftl_state(fresh.ftl)
        restored = self.preconditioned()
        for ftl in (fresh.ftl, restored.ftl):
            for logical in range(64):
                ftl.commit_write(logical)
            ftl.trim(100)
        assert ftl_state(self.preconditioned().ftl) == expected

    def test_erase_fault_plan_gets_its_own_entry(self):
        plain = self.preconditioned()
        spared = self.preconditioned(faults=resolve("wearout"))
        assert len(conv_device._preconditioned) == 2
        assert spared.ftl.spare_blocks_per_die == 2
        assert all(len(spared.ftl._spare[die]) == 2
                   for die in range(spared.ftl.geometry.total_dies))
        assert ftl_state(spared.ftl) != ftl_state(plain.ftl)

    def test_seeds_do_not_share_an_entry(self):
        first = self.preconditioned(seed=1)
        second = self.preconditioned(seed=2)
        assert len(conv_device._preconditioned) == 2
        assert ftl_state(first.ftl) != ftl_state(second.ftl)
        assert ftl_state(self.preconditioned(seed=1).ftl) == ftl_state(first.ftl)

    def test_memo_is_bounded(self):
        for seed in range(conv_device.PRECONDITION_MEMO_ENTRIES + 2):
            self.preconditioned(seed=seed)
        assert len(conv_device._preconditioned) == conv_device.PRECONDITION_MEMO_ENTRIES


class TestGarbageCollectionBehaviour:
    def _flood(self, sim, dev, duration_ns, rng_seed=1):
        """Random full-page overwrites as fast as QD4 allows."""
        import numpy as np

        rng = np.random.default_rng(rng_seed)
        page_lbas = dev.profile.geometry.page_size // dev.namespace.block_size
        pages = dev.namespace.capacity_lbas // page_lbas
        stop_at = sim.now + duration_ns

        def writer():
            while sim.now < stop_at:
                slba = int(rng.integers(0, pages)) * page_lbas
                yield dev.submit(write(slba, page_lbas))

        workers = [sim.process(writer()) for _ in range(4)]
        sim.run(until=sim.all_of(workers))

    def test_sustained_overwrites_trigger_gc(self):
        sim, dev = make_conv()
        dev.precondition(1.0)
        self._flood(sim, dev, sec(0.4))
        assert dev.metrics.counter("gc.victims_erased").value > 0
        assert dev.metrics.counter("gc.pages_copied").value > 0
        assert write_amplification(dev.ftl) > 1.2

    def test_gc_keeps_free_blocks_above_exhaustion(self):
        sim, dev = make_conv()
        dev.precondition(1.0)
        self._flood(sim, dev, sec(0.5))
        assert dev.ftl.free_block_count > 0

    def test_gc_inflates_read_latency(self):
        """The §III-F mechanism: GC + writes inflate read tails."""
        import numpy as np

        sim, dev = make_conv()
        dev.precondition(1.0)
        # Idle read latency.
        idle = run_cmd(sim, dev, read(0, 1)).latency_ns

        rng = np.random.default_rng(7)
        page_lbas = dev.profile.geometry.page_size // dev.namespace.block_size
        pages = dev.namespace.capacity_lbas // page_lbas
        stop = []

        def writer():
            while not stop:
                slba = int(rng.integers(0, pages)) * page_lbas
                yield dev.submit(write(slba, page_lbas))

        for _ in range(4):
            sim.process(writer())
        sim.run(until=sim.now + sec(0.2))  # build up GC + flush backlog
        latencies = []
        for _ in range(20):
            slba = int(rng.integers(0, pages)) * page_lbas
            latencies.append(run_cmd(sim, dev, read(slba, 1)).latency_ns)
        stop.append(True)
        assert max(latencies) > 5 * idle

    def test_no_gc_without_overwrites(self):
        sim = Simulator()
        tracer = Tracer()
        dev = ConvDevice(sim, conv_profile(), tracer=tracer)
        page_lbas = dev.profile.geometry.page_size // dev.namespace.block_size
        for i in range(32):
            run_cmd(sim, dev, write(i * page_lbas, page_lbas))
        sim.run()
        assert not [e for e in tracer.events() if e.name == "gc.run"]
        assert dev.metrics.counter("gc.victims_erased").value == 0
        assert dev.metrics.counter("gc.pages_copied").value == 0


class TestBuildConvDevice:
    def test_carries_every_config_hook(self):
        from repro.device import PRIO_IO
        from repro.core.experiments.common import (
            ExperimentConfig,
            build_conv_device,
        )
        from repro.faults import resolve
        from repro.obs import MetricsRegistry, Tracer
        from repro.obs.telemetry import TelemetryCollector

        tracer, metrics = Tracer(), MetricsRegistry()
        telemetry = TelemetryCollector(100_000)
        config = ExperimentConfig(tracer=tracer, metrics=metrics,
                                  faults="chaos", telemetry=telemetry)
        sim, device = build_conv_device(config, conv_profile(),
                                        gc_priority=PRIO_IO)
        assert device.sim is sim
        assert device.tracer is tracer
        assert device.metrics is metrics
        assert device.faults is not None
        assert device.faults.plan == resolve("chaos")
        assert device.telemetry is not None
        assert telemetry.drain() == [device.telemetry.segment()]
        assert device.gc_priority == PRIO_IO


# -- stalled flushes -----------------------------------------------------------

class BroadcastConvDevice(ConvDevice):
    """The oracle: the wake-up ``ConvDevice`` had before stalled flushes
    retried once per freed block. Every freed block resumes every parked
    flush, in stall order, as the kernel's fan-out over an event's waiter
    list does."""

    def _retry_stalled(self, freed):
        for waiter in freed.stalled:
            waiter.resume(freed)


def stalled_flood(device_class, gc_priority, faults, seed):
    """Random full-page overwrites at QD8 for 150 ms on a 95%-full device,
    where the FTL keeps refusing flushes at its GC reserve.

    Returns each command's ``(completion time, status)`` by writer and
    sequence number, the metrics snapshot (GC and fault counters), the FTL
    state, and the ``commit_write`` refusals met by each freed block's
    retry of the parked flushes.
    """
    refusals = [0]
    per_retry = []

    class Counting(device_class):
        def _retry_stalled(self, freed):
            before = refusals[0]
            super()._retry_stalled(freed)
            per_retry.append(refusals[0] - before)

    sim = Simulator()
    dev = Counting(sim, conv_profile(), gc_priority=gc_priority, faults=faults)
    dev.precondition(0.95, steady_state_churn=1.0, seed=3)
    commit = dev.ftl.commit_write

    def counted_commit(logical, reserve=0):
        try:
            return commit(logical, reserve)
        except FtlFullError:
            refusals[0] += 1
            raise

    dev.ftl.commit_write = counted_commit
    rng = np.random.default_rng(seed)
    page_lbas = dev.profile.geometry.page_size // dev.namespace.block_size
    pages = dev.namespace.capacity_lbas // page_lbas
    completions = {}

    def writer(index):
        sequence = 0
        while sim.now < ms(150):
            slba = int(rng.integers(0, pages)) * page_lbas
            cpl = yield dev.submit(write(slba, page_lbas))
            completions[index, sequence] = (cpl.completed_at, cpl.status)
            sequence += 1

    writers = [sim.process(writer(index)) for index in range(8)]
    sim.run(until=sim.all_of(writers))
    return {
        "completions": completions,
        "metrics": dev.metrics.snapshot(),
        "ftl": ftl_state(dev.ftl),
    }, per_retry


class TestStalledFlushRetry:
    @pytest.fixture(autouse=True, scope="class")
    def empty_memo(self):
        conv_device._preconditioned.clear()
        yield
        conv_device._preconditioned.clear()

    @pytest.mark.parametrize("gc_priority", [PRIO_GC_URGENT, PRIO_IO])
    @pytest.mark.parametrize("faults", [None, "power-cut"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_retry_once_per_freed_block_matches_broadcast(self, gc_priority,
                                                          faults, seed):
        """Resuming parked flushes only up to the first refusal, and moving
        the rest behind the flushes that stalled meanwhile, changes no
        completion, counter or FTL state; each freed block's retry meets
        at most one refusal, where the broadcast met many."""
        plan = resolve(faults)
        run, per_retry = stalled_flood(ConvDevice, gc_priority, plan, seed)
        oracle, oracle_per_retry = stalled_flood(BroadcastConvDevice, gc_priority,
                                                 plan, seed)
        assert run == oracle
        assert len(per_retry) == len(oracle_per_retry) > 0
        assert max(oracle_per_retry) > 1  # the flood really kept flushes parked
        assert max(per_retry) <= 1

    @pytest.mark.parametrize("device_class", [ConvDevice, BroadcastConvDevice])
    def test_retry_keeps_stall_order_behind_newer_stalls(self, device_class):
        """Flushes 1 and 2 park. A block is freed without room for a user
        page, and flush 3 parks before the retry runs. The retry refuses
        flush 1 again and must move flush 2 behind flush 3 and flush 1, as
        the broadcast retry of every flush leaves them: the next pages go
        to flush 3, then 1 and 2."""
        sim = Simulator()
        dev = device_class(sim, conv_profile())
        commit = dev.ftl.commit_write
        room, committed = [0], []

        def commit_while_room(logical, reserve=0):
            if not room[0]:
                raise FtlFullError("no allocatable block outside the GC reserve")
            room[0] -= 1
            committed.append(logical)
            return commit(logical, reserve)

        dev.ftl.commit_write = commit_while_room
        page = dev.profile.geometry.page_size

        def flush(logical):
            # Buffer the page's bytes first, as _exec_write does.
            dev.buffer.put(page)
            _Flush(dev, logical, None)

        flush(1)
        flush(2)
        sim.run()
        flush(3)  # runs after the freed block fires, before its retry
        dev._signal_space_freed()
        sim.run()
        assert committed == []
        for pages in (1, 2):
            room[0] = pages
            dev._signal_space_freed()
            sim.run()
        assert committed == [3, 1, 2]

    def test_flush_cancelled_while_stalled_does_not_commit(self):
        """A power cut that drops a page whose flush is parked on a full
        FTL keeps the old mapping: the flush leaves when it resumes, with
        nothing committed."""
        plan = dataclasses.replace(resolve("power-cut"), power_cut_at_ns=ms(1),
                                   plp_budget_bytes=0)
        sim = Simulator()
        dev = ConvDevice(sim, conv_profile(), faults=plan)
        commit = dev.ftl.commit_write

        def refuse_until_the_cut(logical, reserve=0):
            if sim.now < ms(1):
                raise FtlFullError("no allocatable block outside the GC reserve")
            return commit(logical, reserve)

        dev.ftl.commit_write = refuse_until_the_cut
        page_lbas = dev.profile.geometry.page_size // dev.namespace.block_size
        assert run_cmd(sim, dev, write(0, page_lbas)).ok
        assert len(dev._space_freed.stalled) == 1
        sim.run(until=ms(1) + 1)
        assert dev.faults.bytes_lost.value == dev.profile.geometry.page_size
        dev._signal_space_freed()
        sim.run()
        assert dev.ftl.lookup(0) is None
        assert dev.ftl.total_user_pages_written == 0
        assert dev._pending_flushes == []
        assert dev.backend.counters.pages_programmed == 0


# -- page flushes as records, GC copies counted down -------------------------------

def reference_flood(device_class, channels, dies_per_channel, blocks_per_plane,
                    pages_per_block, nand_us, utilization, churn, gc_priority, faults,
                    cut_at, writers, traced, seed):
    """Random 1-3 page writes, reads and trims from closed-loop writers for
    3 ms on a small preconditioned device, then a drain. NAND reads,
    programs and erases take ``nand_us`` whole microseconds and a page
    crosses its bus in one, so operations often end in the same
    nanosecond. Returns each
    command's completion in completion order, the trace spans (when
    traced), the FTL's end state, the metrics, the fault stream's state
    and the wear odometers, or the error that stopped the run."""
    geometry = FlashGeometry(channels=channels, dies_per_channel=dies_per_channel,
                             planes_per_die=1, blocks_per_plane=blocks_per_plane,
                             pages_per_block=pages_per_block, page_size=4 * KIB)
    profile = conv_profile(geometry=geometry, write_buffer_bytes=64 * KIB, overprovision=0.25,
                           gc_low_watermark=0.15, gc_high_watermark=0.25,
                           nand=NandTiming(*(us(t) for t in nand_us)),
                           channel_bandwidth=geometry.page_size * 1_000_000)
    plan = resolve(faults)
    if plan is not None and plan.power_cut_at_ns is not None:
        plan = dataclasses.replace(plan, power_cut_at_ns=cut_at)
    sim = Simulator()
    tracer = Tracer() if traced else None
    dev = device_class(sim, profile, gc_priority=gc_priority, faults=plan, tracer=tracer,
                       metrics=MetricsRegistry() if traced else None)
    dev.precondition(utilization, steady_state_churn=churn, seed=seed)
    rng = np.random.default_rng(seed)
    page_lbas = geometry.page_size // dev.namespace.block_size
    pages = dev.namespace.capacity_lbas // page_lbas
    log = []

    def writer(index):
        while sim.now < ms(3):
            kind, n_pages = int(rng.integers(0, 8)), int(rng.integers(1, 4))
            opcode = (Opcode.READ, Opcode.TRIM)[kind] if kind < 2 else Opcode.WRITE
            slba = int(rng.integers(0, pages - n_pages + 1)) * page_lbas
            cpl = yield dev.submit(Command(opcode, slba=slba, nlb=n_pages * page_lbas))
            log.append((index, opcode.value, cpl.completed_at, cpl.status))

    try:
        sim.run(until=sim.all_of([sim.process(writer(index)) for index in range(writers)]))
        sim.run(until=ms(50))
        outcome = None
    except SimulationError as error:
        outcome = (sim.now, str(error))
    faults_state = None
    if dev.faults is not None:
        faults_state = (dev.faults._rng.bit_generator.state, dev.faults.wear.snapshot())
    return {
        "outcome": outcome,
        "log": log,
        "spans": [(e.name, e.ts, e.dur, e.track, e.args)
                  for e in tracer._events] if traced else None,
        "ftl": end_state(dev.ftl),
        "metrics": dev.metrics.snapshot(),
        "faults": faults_state,
        "flash": (dev.backend.counters.pages_read, dev.backend.counters.pages_programmed,
                  dev.backend.counters.blocks_erased),
        "pending_flushes": len(dev._pending_flushes),
        "now": sim.now,
    }


@settings(max_examples=60, deadline=None)
@given(
    channels=st.integers(1, 2), dies_per_channel=st.integers(1, 2),
    blocks_per_plane=st.integers(48, 64), pages_per_block=st.sampled_from([4, 8]),
    nand_us=st.tuples(st.integers(1, 4), st.integers(1, 8), st.integers(1, 16)),
    utilization=st.floats(0.85, 0.97), churn=st.sampled_from([0.5, 1.0, 1.5]),
    gc_priority=st.sampled_from([PRIO_GC_URGENT, PRIO_IO]),
    faults=st.sampled_from([None, "power-cut", "chaos", "wearout"]),
    cut_at=st.integers(0, ms(3)), writers=st.integers(1, 8), traced=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_flush_records_and_counted_copies_match_reference(
        channels, dies_per_channel, blocks_per_plane, pages_per_block, nand_us,
        utilization, churn, gc_priority, faults, cut_at, writers, traced, seed):
    """Page flushes as generator-free records and GC copies counted down
    per victim leave every completion, span, FTL state, counter and fault
    draw where a process per flush and an Event per copy left them."""
    args = (channels, dies_per_channel, blocks_per_plane, pages_per_block, nand_us,
            utilization, churn, gc_priority, faults, cut_at, writers, traced, seed)
    assert reference_flood(ConvDevice, *args) == reference_flood(ReferenceConvDevice, *args)


@pytest.mark.parametrize("copies", [1, 3])
def test_last_copy_resumes_the_victim_where_all_of_did(copies):
    """A victim waiting on its copy countdown resumes at the place in the
    ready deque where it resumed waiting on an ``AllOf`` over one Event
    per copy: a process started after each copy completes logs one
    entry per ready-deque hop, and the victim lands between the same two."""
    def order(counted):
        sim, log = Simulator(), []
        if counted:
            wait = _Copies(sim, copies)
            done = [wait.copied] * copies
        else:
            events = [sim.event() for _ in range(copies)]
            wait = sim.all_of(events)
            done = [event.succeed for event in events]

        def victim():
            yield wait
            log.append("victim")

        def hops(copy):
            for hop in range(4):
                log.append((copy, hop))
                yield 0

        def programs():
            yield us(1)
            for copy, copy_done in enumerate(done):
                copy_done(None)
                sim.process(hops(copy))

        sim.process(victim())
        sim.process(programs())
        sim.run()
        return log

    assert order(counted=True) == order(counted=False)


def test_flush_cancelled_during_the_remap_lookup_does_not_program():
    """A flush whose page lands on a remapped block sleeps through the
    remap lookup after it commits. A power cut that drops the page during
    that sleep ends the flush there: no program is queued, and its bytes
    leave the buffer once, with the cut."""
    def flush_one(cut_at):
        plan = dataclasses.replace(resolve("chaos"), power_cut_at_ns=cut_at,
                                   plp_budget_bytes=0)
        sim = Simulator()
        dev = ConvDevice(sim, conv_profile(), faults=plan)
        dev.ftl.remapped_blocks.update(range(dev.ftl.geometry.total_blocks))
        queued = []
        program = dev.backend.program

        def queue_program(*args, **kwargs):
            queued.append(kwargs["label"])
            return program(*args, **kwargs)

        dev.backend.program = queue_program
        page_lbas = dev.profile.geometry.page_size // dev.namespace.block_size
        cpl = run_cmd(sim, dev, write(0, page_lbas))
        sim.run()
        return cpl.completed_at, dev, queued

    completed_at, dev, queued = flush_one(ms(100))
    assert queued == ["flush"]
    assert dev.backend.counters.pages_programmed == 1
    # The flush starts when the write completes and sleeps for the lookup.
    _, dev, queued = flush_one(completed_at + conv_device.BAD_BLOCK_REMAP_NS // 2)
    assert dev.faults.bytes_lost.value == dev.profile.geometry.page_size
    assert queued == []
    assert dev.backend.counters.pages_programmed == 0
    assert dev.buffer.level == 0
    assert dev._pending_flushes == []
