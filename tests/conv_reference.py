"""Reference conventional write path: a process per page flush, an Event
per GC copy.

This is the mechanism :class:`repro.conv.device.ConvDevice` used before
its page flushes became generator-free records and its GC victims began
counting their copies down (DESIGN.md §18.1). ``tests/test_conv_device.py``
runs generated floods through both devices and asserts the same
completions, spans, FTL state, counters and fault draws.

The write path, the flush and the GC victim are kept as they were, with
one change: a flush is started with ``sim.process``, whose completion is
dispatched with nothing waiting on it, where it used to be started by the
deleted ``Simulator.spawn``, which queued no completion. Neither moves
another entry of the ready deque.
"""

from __future__ import annotations

from typing import Generator

from repro.conv.device import BAD_BLOCK_REMAP_NS, ConvDevice
from repro.conv.ftl import FtlFullError
from repro.device.core import PRIO_IO
from repro.hostif.commands import Command, Opcode
from repro.hostif.status import Status


class ReferenceConvDevice(ConvDevice):
    """A :class:`ConvDevice` with a process per flush and an Event per
    GC copy."""

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
            self.sim.process(self._flush_page(logical, token))
        self._maybe_wake_gc()
        return self._complete(command, Status.SUCCESS, nbytes=nbytes, cid=cid)

    def _flush_page(self, logical: int, token: list | None = None) -> Generator:
        while True:
            if token is not None and token[0]:
                self._pending_flushes.remove(token)
                return
            try:
                physical = self.ftl.commit_write(logical, reserve=self._gc_reserve)
                break
            except FtlFullError:
                self._maybe_wake_gc()
                yield self._space_freed
        wear = None
        if self.backend.faults is not None:
            block_id = physical // self.ftl.pages_per_block
            wear = self.faults.wear.unit(block_id)
            if block_id in self.ftl.remapped_blocks:
                yield BAD_BLOCK_REMAP_NS
                if token[0]:
                    self._pending_flushes.remove(token)
                    return
        self.backend.program(self.ftl.die_of_physical(physical), PRIO_IO,
                             label="flush", token=token, wear=wear,
                             done=self._flush_done)

    def _gc_victim(self, victim: int) -> Generator:
        started = self.sim.now
        die = victim // self.ftl.blocks_per_die
        try:
            copies = []
            for new_physical in self.ftl.relocate_block(victim):
                copies.append(self.sim.event())
                self.backend.read(die, self.gc_priority, label="gc.read",
                                  done=self._gc_program,
                                  tag=(self.ftl.die_of_physical(new_physical), copies[-1]))
            if copies:
                yield self.sim.all_of(copies)
                self._gc_copy_counter.inc(len(copies))
            wear = (self.backend.faults.wear.unit(victim)
                    if self.backend.faults is not None else None)
            erased = yield self.backend.erase(die, self.gc_priority,
                                              label="gc.erase", wear=wear)
            freed = True
            if erased.result:
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
                                 track="gc", die=die, pages_copied=len(copies))
            if freed:
                self._signal_space_freed()
        finally:
            self._gc_inflight_blocks.discard(victim)

    def _gc_program(self, read) -> None:
        die, copied = read.tag
        self.backend.program(die, self.gc_priority, label="gc.program",
                             done=copied.succeed)
