"""Reference flash timing: dies and buses as ``Resource``s, one process per
page operation.

This is the mechanism :class:`repro.flash.FlashBackend` used before its
dies and buses became servers with their own queues (DESIGN.md §15.5).
``tests/test_flash.py`` runs generated programs of reads, programs and
erases through both and asserts the same timing, order, accounting and
fault draws.

The three operations are kept as they were, with one addition: a
``stamp`` list, when given, receives the simulated time at which the
operation starts holding its die (a program's die start, a read's sense
start, an erase's start). Stamping reads the clock only.
"""

from __future__ import annotations

from typing import Generator

from repro.flash import FlashCounters
from repro.flash.geometry import MIB, FlashGeometry
from repro.flash.nand import NandTiming
from repro.obs.tracer import resolve_tracer
from repro.sim.engine import Simulator
from repro.sim.resources import Resource


class ReferenceBackend:
    """Per-die and per-channel ``Resource``s; operations are generators."""

    def __init__(self, sim: Simulator, geometry: FlashGeometry,
                 timing: NandTiming, channel_bandwidth: int = 800 * MIB,
                 tracer=None, faults=None):
        self.sim = sim
        self.geometry = geometry
        self.timing = timing
        self.channel_bandwidth = channel_bandwidth
        self.tracer = resolve_tracer(tracer)
        self.faults = faults if faults is not None and faults.plan.media_enabled else None
        self.dies = [Resource(sim, name=f"die{i}") for i in range(geometry.total_dies)]
        self.buses = [Resource(sim, name=f"bus{i}") for i in range(geometry.channels)]
        self.counters = FlashCounters()
        self._die_busy_ns = [0] * geometry.total_dies
        self._bus_of_die = [self.buses[geometry.channel_of_die(i)]
                            for i in range(geometry.total_dies)]
        self._page_transfer_ns = self.transfer_ns(geometry.page_size)

    def transfer_ns(self, nbytes: int) -> int:
        return round(nbytes * 1e9 / self.channel_bandwidth)

    def die_busy_ns(self, die_index: int) -> int:
        return self._die_busy_ns[die_index]

    def read_page(self, die_index: int, priority: int = 0,
                  transfer_bytes: int | None = None,
                  cid: int = 0, label: str = "read",
                  fault_out: list | None = None,
                  wear=None, stamp: list | None = None) -> Generator:
        die = self.dies[die_index]
        traced = self.tracer.enabled
        queued_at = self.sim.now if traced else 0
        req = die.request(priority)
        yield req
        if stamp is not None:
            stamp.append(self.sim.now)
        start = self.sim.now if traced else 0
        yield self.timing.read_ns
        busy_ns = self.timing.read_ns
        if self.faults is not None:
            retries, uncorrectable = self.faults.read_outcome(wear)
            if retries:
                retry_ns = retries * self.timing.read_ns
                yield retry_ns
                busy_ns += retry_ns
            if uncorrectable and fault_out is not None:
                fault_out.append(die_index)
        self._die_busy_ns[die_index] += busy_ns
        die.release(req)
        bus = self._bus_of_die[die_index]
        breq = bus.request(priority)
        yield breq
        nbytes = self.geometry.page_size if transfer_bytes is None else transfer_bytes
        yield self.transfer_ns(nbytes)
        bus.release(breq)
        self.counters.pages_read += 1
        if traced:
            if start > queued_at:
                self.tracer.span("queue", f"{label}.die_wait", queued_at, start,
                                 track=f"die{die_index}", cid=cid)
            self.tracer.span("nand", f"{label}.page", start, self.sim.now,
                             track=f"die{die_index}", cid=cid, die=die_index)

    def program_page(self, die_index: int, priority: int = 0,
                     cid: int = 0, label: str = "program",
                     cancel: list | None = None,
                     wear=None, stamp: list | None = None) -> Generator:
        traced = self.tracer.enabled
        if cancel is not None and cancel[0]:
            return -1
        started = self.sim.now if traced else 0
        bus = self._bus_of_die[die_index]
        breq = bus.request(priority)
        yield breq
        yield self._page_transfer_ns
        bus.release(breq)
        die = self.dies[die_index]
        req = die.request(priority)
        yield req
        if stamp is not None:
            stamp.append(self.sim.now)
        if cancel is not None:
            if cancel[0]:
                die.release(req)
                return -1
            cancel[1] = True
        yield self.timing.program_ns
        busy_ns = self.timing.program_ns
        failures = 0
        if self.faults is not None:
            failures = self.faults.program_outcome(wear)
            if failures:
                extra = failures * self.timing.program_ns
                yield extra
                busy_ns += extra
        self._die_busy_ns[die_index] += busy_ns
        die.release(req)
        self.counters.pages_programmed += 1
        if traced:
            self.tracer.span("nand", f"{label}.page", started, self.sim.now,
                             track=f"die{die_index}", cid=cid, die=die_index)
        return failures

    def erase_block(self, die_index: int, priority: int = 0,
                    cid: int = 0, label: str = "erase",
                    wear=None, stamp: list | None = None) -> Generator:
        die = self.dies[die_index]
        traced = self.tracer.enabled
        req = die.request(priority)
        yield req
        if stamp is not None:
            stamp.append(self.sim.now)
        start = self.sim.now if traced else 0
        yield self.timing.erase_ns
        busy_ns = self.timing.erase_ns
        bad_block = False
        if self.faults is not None:
            retries, bad_block = self.faults.erase_outcome(wear)
            if retries:
                extra = retries * self.timing.erase_ns
                yield extra
                busy_ns += extra
            if not bad_block and wear is not None:
                self.faults.note_erase(wear)
        self._die_busy_ns[die_index] += busy_ns
        die.release(req)
        self.counters.blocks_erased += 1
        if traced:
            self.tracer.span("nand", f"{label}.block", start, self.sim.now,
                             track=f"die{die_index}", cid=cid, die=die_index)
        return bad_block
