"""The simulated conventional (block-interface) NVMe SSD.

Shares the ZN540's controller/buffer/flash mechanics (the paper stresses
both test devices "have the same hardware specifications") but replaces
the zone layer with a page-mapped FTL plus device-internal garbage
collection. GC relocation traffic flows through the same dies as user
I/O at the same priority — producing exactly the §III-F phenomena: user
write throughput swinging between a few MiB/s and the device limit, and
read tail latencies inflated by orders of magnitude.

The shared mechanics literally are the ZNS device's: both models extend
:class:`repro.device.core.DeviceCore` (controller front-end, per-request
costs, completion path, write buffer, flush tail); this module holds
only the FTL and GC machinery (DESIGN.md §11).
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from typing import Generator, Optional

from ..device.core import PRIO_IO, DeviceCore
from ..flash.backend import FlashBackend
from ..hostif.commands import Command, Opcode
from ..hostif.namespace import LBA_4K, LbaFormat
from ..hostif.status import Status
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer
from ..sim.engine import Simulator
from ..sim.rng import StreamFactory
from ..zns.profiles import DeviceProfile
from .ftl import FtlFullError, PageMappedFtl
from .gc import GcPolicy

__all__ = ["ConvDevice", "PRIO_GC_URGENT"]

#: GC only activates below the low free-space watermark, where it must
#: outrank user traffic at the dies or the (buffer-deep) backlog of user
#: programs would starve it and deadlock the FTL. This urgency is also
#: what collapses user throughput during GC bursts (Fig. 6a) and stretches
#: read tails to hundreds of milliseconds (Observation #11).
PRIO_GC_URGENT = -1

#: Victim blocks GC processes concurrently. Real FTLs pipeline GC
#: deeply; this is what piles relocation traffic onto the dies in front
#: of user reads (the §III-F conventional read tails).
GC_WINDOW = 16

#: Preconditioned FTLs kept per process (see :meth:`ConvDevice.precondition`),
#: least recently used evicted first. One entry is a pickle of a few MiB.
PRECONDITION_MEMO_ENTRIES = 4
_preconditioned: OrderedDict[tuple, bytes] = OrderedDict()


class ConvDevice(DeviceCore):
    """A conventional SSD: page-mapped FTL + greedy GC over shared flash."""

    kind = "conv"

    def __init__(
        self,
        sim: Simulator,
        profile: DeviceProfile,
        lba_format: LbaFormat = LBA_4K,
        streams: Optional[StreamFactory] = None,
        gc_priority: int = PRIO_GC_URGENT,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        faults=None,
        telemetry=None,
    ):
        #: Factory spares per die for bad-block remapping — reserved only
        #: when the plan can actually fail erases, so fault-free (and
        #: erase-fault-free) runs keep every block in the user pool.
        spares = 2 if faults is not None and faults.erase_faults_enabled else 0
        self.ftl = PageMappedFtl(profile.geometry, profile.overprovision,
                                 spare_blocks_per_die=spares)
        # Round the namespace down to a whole number of logical pages.
        logical_bytes = self.ftl.logical_pages * profile.geometry.page_size
        super().__init__(
            sim, profile, logical_bytes, lba_format, streams or StreamFactory(),
            tracer, metrics, io_stream="conv-io", faults=faults,
            telemetry=telemetry,
        )
        self.backend = FlashBackend(
            sim, profile.geometry, profile.nand, profile.channel_bandwidth,
            tracer=self.tracer,
            metrics=self.metrics if self.observing else None,
            faults=self.faults,
        )
        #: Power-loss cancellation tokens of page flushes that have not
        #: committed to the media yet (fault mode only; see DeviceCore).
        self._pending_flushes: list = []
        self._gc_victim_counter = self.metrics.counter("gc.victims_erased")
        self._gc_copy_counter = self.metrics.counter("gc.pages_copied")
        self.gc_policy = GcPolicy(
            profile.gc_low_watermark, profile.gc_high_watermark
        )
        self._gc_wakeup = sim.event()
        self._space_freed = sim.event()
        self._gc_running = False
        #: Free blocks only GC may allocate from — guarantees relocation
        #: destinations so GC can always make forward progress.
        self._gc_reserve = profile.geometry.total_dies
        #: Die-scheduling priority of GC traffic; PRIO_GC_URGENT by
        #: default (see module note). The ablation benchmarks set this to
        #: PRIO_IO to demonstrate the starvation failure mode.
        self.gc_priority = gc_priority
        self._gc_inflight_blocks: set[int] = set()
        sim.process(self._gc_loop(), name="conv-gc")

    # ------------------------------------------------------------------ api
    def _dispatch(self, command: Command, cid: int) -> Generator:
        opcode = command.opcode
        if opcode is Opcode.READ:
            return self._exec_read(command, cid)
        elif opcode is Opcode.WRITE:
            return self._exec_write(command, cid)
        elif opcode is Opcode.TRIM:
            return self._exec_trim(command, cid)
        raise ValueError(
            f"conventional device does not support {command.opcode.value}"
        )

    def _telemetry_levels(self) -> dict:
        levels = super()._telemetry_levels()
        levels["ftl.free_frac"] = round(self.ftl.free_fraction, 6)
        levels["ftl.bad_blocks"] = len(self.ftl.bad_blocks)
        levels["gc.running"] = 1 if self._gc_running else 0
        levels["gc.inflight_blocks"] = len(self._gc_inflight_blocks)
        return levels

    def _wear_unit_ids(self) -> list[int]:
        # Aged erase blocks start wear-curve failure rates (and eventually
        # bad-block remaps) from an aged baseline.
        return [block.block_id for block in self.ftl.blocks]

    def precondition(self, utilization: float = 1.0,
                     steady_state_churn: float = 0.0, seed: int = 99) -> None:
        """Metadata-only stand-in for the hours-long fill + churn a real
        measurement runs before Fig. 6.

        Fills ``utilization`` of the logical space sequentially, then
        overwrites ``steady_state_churn`` × that volume at uniformly
        random addresses with synchronous (untimed) watermark GC — which
        drives the per-block validity distribution to the greedy-GC
        steady state, so the measured run starts with realistic write
        amplification instead of spending hundreds of simulated seconds
        converging. :meth:`PageMappedFtl.precondition` builds the state.

        The FTL must be pristine, and the arguments are checked by the
        builder. The result depends only on the FTL's
        shape, the GC watermarks and the arguments, so it is memoized per
        process and a repeat call restores a copy: ``self.ftl`` is
        replaced by an FTL equal to the one a fresh fill would build.
        """
        ftl = self.ftl
        ftl.check_pristine()  # before the memo: a hit replaces the FTL
        key = (ftl.geometry, ftl.overprovision, ftl.spare_blocks_per_die,
               self.gc_policy, utilization, steady_state_churn, seed)
        blob = _preconditioned.get(key)
        if blob is not None:
            _preconditioned.move_to_end(key)
            self.ftl = pickle.loads(blob)
            return
        ftl.precondition(utilization, steady_state_churn, seed, self.gc_policy)
        _preconditioned[key] = pickle.dumps(ftl, pickle.HIGHEST_PROTOCOL)
        if len(_preconditioned) > PRECONDITION_MEMO_ENTRIES:
            _preconditioned.popitem(last=False)

    # ----------------------------------------------------------------- paths
    def _page_span(self, slba: int, nbytes: int) -> tuple[int, int]:
        """``(first flash page, page count)`` a request's bytes touch."""
        start = slba * self._block_size
        first = start // self._page_size
        return first, -(-(start + nbytes) // self._page_size) - first

    def _exec_read(self, command: Command, cid: int = 0) -> Generator:
        shape = self._io_shape(Opcode.READ, command.nlb)
        yield from self._controller_service(shape.service_ns, cid)
        if command.slba + command.nlb > self._capacity_lbas:
            return self._complete(command, Status.LBA_OUT_OF_RANGE, cid=cid)
        start_page, n_pages = self._page_span(command.slba, shape.nbytes)
        take = min(self._page_size, shape.nbytes)
        nand_started = self.sim.now if self.tracer.enabled else 0
        sim = self.sim
        lookup = self.ftl.lookup
        die_of = self.ftl.die_of_physical
        read_page = self.backend.read_page
        injector = self.backend.faults
        fault_out = [] if injector is not None else None
        pages_per_block = self.ftl.pages_per_block
        remapped_blocks = self.ftl.remapped_blocks
        remapped = 0
        reads = []
        for logical in range(start_page, start_page + n_pages):
            physical = lookup(logical)
            if physical is None:
                continue  # unwritten data: served from the map, no NAND
            wear = None
            if injector is not None:
                block_id = physical // pages_per_block
                wear = injector.wear.unit(block_id)
                if block_id in remapped_blocks:
                    remapped += 1
            reads.append(
                sim.process(
                    read_page(die_of(physical), priority=PRIO_IO,
                              transfer_bytes=take, cid=cid,
                              fault_out=fault_out, wear=wear)
                )
            )
        if remapped:
            # Remap-table indirection: pages on promoted spares pay an
            # extra firmware lookup before the NAND ops are issued.
            yield sim.timeout(remapped * injector.plan.bad_block_remap_ns)
        if len(reads) == 1:
            yield reads[0]
        elif reads:
            yield sim.all_of(reads)
            if self.tracer.enabled:
                self.tracer.span("nand", "read.fanout", nand_started,
                                 self.sim.now, track="nand", cid=cid,
                                 dies=len(reads))
        if fault_out:
            return self._complete(command, Status.MEDIA_UNRECOVERED_READ, cid=cid)
        return self._complete(command, Status.SUCCESS, nbytes=shape.nbytes, cid=cid)

    def _exec_write(self, command: Command, cid: int = 0) -> Generator:
        shape = self._io_shape(Opcode.WRITE, command.nlb)
        yield from self._controller_service(shape.service_ns, cid)
        if command.slba + command.nlb > self._capacity_lbas:
            return self._complete(command, Status.LBA_OUT_OF_RANGE, cid=cid)
        nbytes = shape.nbytes
        start_page, n_pages = self._page_span(command.slba, nbytes)
        flash_bytes = n_pages * self._page_size
        admit_started = self.sim.now if self.tracer.enabled else 0
        yield self.sim.timeout(shape.admit_ns)
        yield self.buffer.put(flash_bytes)
        if self.observing:
            self._wbuf_gauge.set(self.buffer.level)
        if self.tracer.enabled:
            self.tracer.span("buffer", "write.admit", admit_started,
                             self.sim.now, track="buffer", cid=cid, nbytes=nbytes)
        start_process = self.sim.process
        flush = self._flush_page
        if self.faults is None:
            for logical in range(start_page, start_page + n_pages):
                start_process(flush(logical))
        else:
            for logical in range(start_page, start_page + n_pages):
                token = [False, False]  # [cancelled, program started]
                self._pending_flushes.append(token)
                start_process(flush(logical, token))
        self._maybe_wake_gc()
        return self._complete(command, Status.SUCCESS, nbytes=nbytes, cid=cid)

    def _flush_page(self, logical: int, token: list | None = None) -> Generator:
        if token is not None and token[0]:
            # Power cut dropped this page before the flush began; the
            # mapping keeps the old data and the bytes were drained.
            self._pending_flushes.remove(token)
            return
        while True:
            try:
                physical = self.ftl.commit_write(logical, reserve=self._gc_reserve)
                break
            except FtlFullError:
                # Out of allocatable blocks: stall this flush (and, via
                # the full buffer, user writes) until GC frees a block —
                # the mechanism behind Fig. 6a's throughput collapses.
                self._maybe_wake_gc()
                yield self._space_freed
        wear = None
        if self.backend.faults is not None:
            block_id = physical // self.ftl.pages_per_block
            wear = self.faults.wear.unit(block_id)
            if block_id in self.ftl.remapped_blocks:
                yield self.sim.timeout(self.faults.plan.bad_block_remap_ns)
        failures = yield from self._flush_page_to_die(
            self.ftl.die_of_physical(physical), cancel=token, wear=wear
        )
        if wear is not None and failures > 0:
            wear.program_failures += failures
        if token is not None:
            try:
                self._pending_flushes.remove(token)
            except ValueError:
                pass

    # ------------------------------------------------------------ power loss
    def _power_loss_drop(self, target: int) -> tuple[int, int]:
        """Cancel queued-but-uncommitted page flushes, newest first.

        The recovery unit count is the FTL's mapped-page population: on
        boot a conventional controller rebuilds (or at least verifies)
        its L2P table, so the replay cost scales with mapped pages.
        """
        page = self._page_size
        dropped = 0
        for token in reversed(self._pending_flushes):
            if target - dropped < page:
                break
            if token[1]:  # already programming; PLP completes it
                continue
            token[0] = True
            dropped += page
        return dropped, self.ftl.mapped_pages()

    def _recovery_ns(self, units: int) -> int:
        return units * self.faults.plan.recovery_per_page_ns

    def _exec_trim(self, command: Command, cid: int = 0) -> Generator:
        """NVMe deallocate: unmap pages so GC can reclaim them for free.

        Like the ZNS reset, trim is metadata work whose cost grows with
        the number of mapped pages it touches (the paper cites trim's
        metadata overheads when explaining reset cost, §III-E). We model
        it as per-page mapping updates on the controller.

        (The service-time class is deliberately the WRITE formula: trim
        rides the write command path on real controllers.)
        """
        shape = self._io_shape(Opcode.WRITE, command.nlb)
        yield from self._controller_service(shape.service_ns, cid)
        if command.slba + command.nlb > self._capacity_lbas:
            return self._complete(command, Status.LBA_OUT_OF_RANGE, cid=cid)
        start_page, n_pages = self._page_span(command.slba, shape.nbytes)
        unmapped = 0
        for logical in range(start_page, start_page + n_pages):
            if self.ftl.trim(logical):
                unmapped += 1
        # Mapping-table updates: same per-LBA cost class as the ZNS
        # reset's unmapping work, scaled to the pages actually touched.
        map_started = self.sim.now
        yield self.sim.timeout(unmapped * self.profile.per_lba_ns_4k * 4)
        if self.tracer.enabled:
            self.tracer.span("firmware", "trim.unmap", map_started,
                             self.sim.now, track="firmware", cid=cid,
                             pages=unmapped)
        return self._complete(command, Status.SUCCESS, cid=cid)

    # ----------------------------------------------------------------- GC
    def _maybe_wake_gc(self) -> None:
        if not self._gc_running and self.gc_policy.should_start(self.ftl.free_fraction):
            if not self._gc_wakeup.triggered:
                self._gc_wakeup.succeed()

    def _gc_loop(self) -> Generator:
        while True:
            if not self.gc_policy.should_start(self.ftl.free_fraction):
                yield self._gc_wakeup
                self._gc_wakeup = self.sim.event()
            self._gc_running = True
            run_started = self.sim.now
            victims_before = self._gc_victim_counter.value
            copied_before = self._gc_copy_counter.value
            active: list = []
            while True:
                # Keep the victim pipeline full while below the stop mark.
                while (
                    len(active) < GC_WINDOW
                    and not self.gc_policy.should_stop(self.ftl.free_fraction)
                ):
                    victim = self.ftl.pick_victim(exclude=self._gc_inflight_blocks)
                    if victim is None:
                        break
                    self._gc_inflight_blocks.add(victim.block_id)
                    active.append(self.sim.process(self._gc_victim(victim)))
                if not active:
                    break
                yield self.sim.any_of(active)
                active = [p for p in active if p.is_alive]
            if self.tracer.enabled:
                self.tracer.span(
                    "gc", "gc.run", run_started, self.sim.now, track="gc",
                    victims=self._gc_victim_counter.value - victims_before,
                    pages_copied=self._gc_copy_counter.value - copied_before,
                )
            self._gc_running = False

    def _gc_victim(self, victim) -> Generator:
        """Relocate one victim's valid pages, then erase and recycle it."""
        started = self.sim.now
        try:
            copies = [
                self.sim.process(
                    self._gc_copy(victim.die, self.ftl.die_of_physical(new_physical))
                )
                for new_physical in self.ftl.relocate_block(victim)
            ]
            if copies:
                yield self.sim.all_of(copies)
                self._gc_copy_counter.inc(len(copies))
            wear = (self.backend.faults.wear.unit(victim.block_id)
                    if self.backend.faults is not None else None)
            bad = yield self.sim.process(
                self.backend.erase_block(
                    victim.die, priority=self.gc_priority, label="gc.erase",
                    wear=wear
                )
            )
            freed = True
            if bad:
                # Erase retries exhausted: retire the block and promote a
                # factory spare (later accesses to the spare pay the
                # remap indirection). An empty spare pool just shrinks
                # the die.
                spare = self.ftl.retire_block(victim)
                if spare is not None:
                    self.faults.bad_blocks_remapped.inc()
                else:
                    freed = False
            else:
                self.ftl.erase(victim)
                self._gc_victim_counter.inc()
            if self.tracer.enabled:
                self.tracer.span("gc", "gc.victim", started, self.sim.now,
                                 track="gc", die=victim.die,
                                 pages_copied=len(copies))
            if freed:
                self._space_freed.succeed()
                self._space_freed = self.sim.event()
        finally:
            self._gc_inflight_blocks.discard(victim.block_id)

    def _gc_copy(self, src_die: int, dst_die: int) -> Generator:
        yield from self.backend.read_page(src_die, priority=self.gc_priority,
                                          label="gc.read")
        yield from self.backend.program_page(dst_die, priority=self.gc_priority,
                                             label="gc.program")
