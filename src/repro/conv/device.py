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

from collections import OrderedDict
from typing import Callable, Generator, Optional

from ..device.core import PRIO_IO, DeviceCore
from ..flash.backend import FlashBackend
from ..hostif.commands import Command, Opcode
from ..hostif.namespace import LBA_4K, LbaFormat
from ..hostif.status import Status
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer
from ..sim.engine import Event, Process, Simulator, Timeout, us
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
#: least recently used evicted first. One entry is a few MiB of array copies.
PRECONDITION_MEMO_ENTRIES = 4

#: Per-access indirection penalty for reads/programs that land on a
#: block remapped from the spare pool after a bad-block erase failure.
BAD_BLOCK_REMAP_NS = us(25)
#: Power-loss recovery cost per mapped page (the L2P rebuild scan).
RECOVERY_PER_PAGE_NS = 40
_preconditioned: OrderedDict[tuple, tuple] = OrderedDict()


class _BlockFreed(Event):
    """Fires when GC frees the next block.

    The flushes the FTL refused wait on it, in stall order, in ``stalled``
    rather than in the kernel's waiter slot, whose one callback
    (``retry``) decides which of them resume (DESIGN.md §18.7).
    """

    __slots__ = ("stalled",)

    def __init__(self, sim: Simulator, retry: Callable[["_BlockFreed"], None]):
        super().__init__(sim)
        self.stalled: list[Process] = []
        super().add_callback(retry)

    def add_callback(self, waiter: Process) -> None:
        self.stalled.append(waiter)


class _Flush(Process):
    """One user page's flush: a generator-free record the kernel runs as
    a process (DESIGN.md §18.1).

    It queues itself on the ready deque where a process's bootstrap
    goes; each time the run loop or a retry resumes it, :meth:`_send`
    takes the next step and returns what it waits on: the freed-block
    event while the FTL refuses the page, the remap lookup's sleep, or
    ``None`` once the program is queued or the page was dropped. Nothing
    waits on a flush, so it never completes as an event.
    """

    __slots__ = ("device", "logical", "token", "physical", "wear")

    def __init__(self, device: "ConvDevice", logical: int, token: list | None):
        # Event.__init__ inlined: one record per flushed page.
        sim = self.sim = device.sim
        self._cb = self._value = self._exception = self.generator = None
        self._triggered = self._processed = False
        self._name = "flush"
        self.device, self.logical, self.token = device, logical, token
        self.physical = -1
        self.wear = None
        sim._ready.append(self)

    def _block_on(self, target) -> None:
        if target is not None:  # None: the flush is done
            Process._block_on(self, target)

    def _send(self, _value):
        device, token = self.device, self.token
        if self.physical < 0:
            if token is not None and token[0]:
                # A power cut dropped this page before it reached the FTL
                # (before the flush began or while it stalled): the
                # mapping keeps the old data and the bytes were drained.
                device._pending_flushes.remove(token)
                return None
            ftl = device.ftl
            try:
                self.physical = ftl.commit_write(self.logical, reserve=device._gc_reserve)
            except FtlFullError:
                # Out of allocatable blocks: stall this flush (and, via
                # the full buffer, user writes) until GC frees a block —
                # the mechanism behind Fig. 6a's throughput collapses.
                device._maybe_wake_gc()
                return device._space_freed
            if device.backend.faults is not None:
                block = self.physical // ftl.pages_per_block
                self.wear = device.faults.wear.unit(block)
                if block in ftl.remapped_blocks:
                    return BAD_BLOCK_REMAP_NS  # resumes below when it wakes
        elif token[0]:  # cancelled during the remap lookup
            device._pending_flushes.remove(token)
            return None
        device.backend.program(device.ftl.die_of_physical(self.physical), PRIO_IO,
                               label="flush", token=token, wear=self.wear,
                               done=device._flush_done)
        return None


class _Copies(Event):
    """A GC victim's wait for its page copies.

    Each copy's program counts it down. The last one queues a zero
    :class:`Timeout` whose callback succeeds this event: two ready-deque
    hops, as a per-copy Event and an ``AllOf`` over them took, so the
    victim resumes at the same place in the order.
    """

    __slots__ = ("left",)

    def __init__(self, sim: Simulator, left: int):
        super().__init__(sim)
        self.left = left

    def copied(self, _op) -> None:
        self.left -= 1
        if not self.left:
            Timeout(self.sim, 0).add_callback(self._last_copied)

    def _last_copied(self, _timeout: Timeout) -> None:
        self.succeed()


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
        self._space_freed = _BlockFreed(sim, self._retry_stalled)
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

    _telemetry_level_names = DeviceCore._telemetry_level_names + (
        "ftl.free_frac", "ftl.bad_blocks", "gc.running", "gc.inflight_blocks",
    )

    def _telemetry_levels(self) -> tuple:
        ftl = self.ftl
        return super()._telemetry_levels() + (
            round(ftl.free_fraction, 6), len(ftl.bad_blocks),
            1 if self._gc_running else 0, len(self._gc_inflight_blocks),
        )

    def _wear_unit_ids(self) -> list[int]:
        # Aged erase blocks start wear-curve failure rates (and eventually
        # bad-block remaps) from an aged baseline.
        return list(range(self.ftl.geometry.total_blocks))

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
        replaced by an FTL equal to the one a fresh fill would build. The
        memo keeps :meth:`PageMappedFtl.snapshot`: array copies of the
        maps and columns, and a small pickle of the rest.
        """
        ftl = self.ftl
        ftl.check_pristine()  # before the memo: a hit replaces the FTL
        key = (ftl.geometry, ftl.overprovision, ftl.spare_blocks_per_die,
               self.gc_policy, utilization, steady_state_churn, seed)
        snapshot = _preconditioned.get(key)
        if snapshot is not None:
            _preconditioned.move_to_end(key)
            self.ftl = PageMappedFtl.from_snapshot(snapshot)
            return
        ftl.precondition(utilization, steady_state_churn, seed, self.gc_policy)
        _preconditioned[key] = ftl.snapshot()
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
        read = self.backend.read
        injector = self.backend.faults
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
            reads.append(read(die_of(physical), PRIO_IO, take, cid, wear=wear))
        if remapped:
            # Remap-table indirection: pages on promoted spares pay an
            # extra firmware lookup before the NAND ops are issued.
            yield remapped * BAD_BLOCK_REMAP_NS
        unrecovered = False
        if len(reads) == 1:
            unrecovered = (yield reads[0]).result
        elif reads:
            done = yield sim.all_of(reads)
            unrecovered = any(op.result for op in done.values())
            if self.tracer.enabled:
                self.tracer.span("nand", "read.fanout", nand_started,
                                 self.sim.now, track="nand", cid=cid,
                                 dies=len(reads))
        if unrecovered:
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
        yield shape.admit_ns
        yield self.buffer.put(flash_bytes)
        if self.observing:
            self._wbuf_gauge.set(self.buffer.level)
        if self.tracer.enabled:
            self.tracer.span("buffer", "write.admit", admit_started,
                             self.sim.now, track="buffer", cid=cid, nbytes=nbytes)
        token = None
        for logical in range(start_page, start_page + n_pages):
            if self.faults is not None:
                token = [False, False]  # [cancelled, program started]
                self._pending_flushes.append(token)
            _Flush(self, logical, token)
        self._maybe_wake_gc()
        return self._complete(command, Status.SUCCESS, nbytes=nbytes, cid=cid)

    def _flush_settled(self, op) -> None:
        if op.result > 0 and op.wear is not None:
            op.wear.program_failures += op.result
        self._pending_flushes.remove(op.token)

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
        return units * RECOVERY_PER_PAGE_NS

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
        yield unmapped * self.profile.per_lba_ns_4k * 4
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
                    self._gc_inflight_blocks.add(victim)
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

    def _gc_victim(self, victim: int) -> Generator:
        """Relocate one victim block's valid pages, then erase and
        recycle it."""
        started = self.sim.now
        die = victim // self.ftl.blocks_per_die
        try:
            # A copy is a read record whose completion queues the program.
            moved = self.ftl.relocate_block(victim)
            if moved:
                copies = _Copies(self.sim, len(moved))
                die_of = self.ftl.die_of_physical
                for new_physical in moved:
                    self.backend.read(die, self.gc_priority, label="gc.read",
                                      done=self._gc_program,
                                      tag=(die_of(new_physical), copies))
                yield copies
                self._gc_copy_counter.inc(len(moved))
            wear = (self.backend.faults.wear.unit(victim)
                    if self.backend.faults is not None else None)
            erased = yield self.backend.erase(die, self.gc_priority,
                                              label="gc.erase", wear=wear)
            bad = erased.result
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
                                 track="gc", die=die, pages_copied=len(moved))
            if freed:
                self._signal_space_freed()
        finally:
            self._gc_inflight_blocks.discard(victim)

    def _signal_space_freed(self) -> None:
        """Fire the freed-block event; later stalls wait for the next one."""
        self._space_freed.succeed()
        self._space_freed = _BlockFreed(self.sim, self._retry_stalled)

    def _retry_stalled(self, freed: _BlockFreed) -> None:
        """Retry the flushes parked on ``freed``, in stall order, up to and
        including the first one the FTL refuses again; the rest move
        unresumed, in order, behind the flushes parked on the next freed
        block.

        Exact (DESIGN.md §18.7): a refused ``commit_write`` changes
        nothing, and only an erase or a retirement makes room, which no
        resumed flush does before it yields, so every flush after a
        refusal would be refused too.
        """
        stalled = freed.stalled
        for index, waiter in enumerate(stalled):
            waiter.resume(freed)
            parked = self._space_freed.stalled
            if parked and parked[-1] is waiter:  # refused again
                parked.extend(stalled[index + 1:])
                return

    def _gc_program(self, read) -> None:
        """Second half of a GC copy: program the page its read sensed."""
        die, copies = read.tag
        self.backend.program(die, self.gc_priority, label="gc.program",
                             done=copies.copied)
