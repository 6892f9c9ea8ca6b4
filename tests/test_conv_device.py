"""Integration tests for the conventional SSD device model."""

import dataclasses

import numpy as np
import pytest

from repro.device import PRIO_IO
from repro.flash import KIB, MIB, FlashGeometry
from repro.hostif import Command, Opcode, Status
from repro.sim import Simulator, ms, sec, us
from repro.conv import ConvDevice, FtlFullError
from repro.conv import device as conv_device
from repro.conv.device import PRIO_GC_URGENT
from repro.faults import resolve
from repro.obs import Tracer

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
        assert dev.ftl.write_amplification() == 1.0  # fill isn't counted

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
        dev.ftl.retire_block(dev.ftl.blocks[0])
        with pytest.raises(ValueError, match="pristine"):
            dev.precondition(0.5)


def ftl_state(ftl) -> dict:
    """Everything a preconditioned FTL carries into a measured run."""
    return {
        "back_maps": [(b.block_id, b.die, list(b.slot_to_logical), b.write_slot,
                       b.valid_count) for b in ftl.blocks],
        "l2p": list(ftl._l2p),
        "mapped": ftl.mapped_pages(),
        "free": [list(pool) for pool in ftl._free],
        "spare": [list(pool) for pool in ftl._spare],
        "user_active": [b and b.block_id for b in ftl._user_active],
        "gc_active": [b and b.block_id for b in ftl._gc_active],
        "die_cursor": ftl._die_cursor,
        "free_block_count": ftl.free_block_count,
        "counters": (ftl.total_user_pages_written, ftl.total_gc_pages_copied),
        "bad": sorted(ftl.bad_blocks),
        "remapped": sorted(ftl.remapped_blocks),
        "victims": sorted(ftl._victims),
    }


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
        assert any(0 < b.valid_count < b.write_slot for b in fresh.ftl.blocks)

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
        assert all(spared.ftl.spare_blocks_left(die) == 2
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
        assert dev.ftl.write_amplification() > 1.2

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
            sim.process(dev._flush_page(logical))

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
