"""Event-driven NAND flash array: dies and channel buses as servers.

The *shared physical substrate* under both the ZNS and the conventional
model, addressed at die granularity (page mapping belongs to the FTLs).
Queueing at dies and buses produces the interference the paper measures:
user reads behind GC programs (§III-F), and the aggregate program
bandwidth ceiling (§III-D). Each die and each bus is a server
(:class:`_Unit`): one kernel process with a FIFO of :class:`PageOp`
records per priority level, lowest level first, as a ``Resource``
grants. A read holds its die, then its bus; a program its bus, then its
die; an erase its die. A record completes by calling its ``done``: a
callable, or the ``succeed`` of an :class:`Event` a waiter yields. The
ordering contract is DESIGN.md §15.5.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Generator, Optional

from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer, resolve_tracer
from ..sim.engine import Event, Process, Simulator
from ..sim.resources import PriorityFifo
from .geometry import MIB, FlashGeometry
from .nand import NandTiming

__all__ = ["FlashBackend", "FlashCounters", "PageOp"]

#: Record kinds, named after the counters they bump.
_READ = "pages_read"
_PROGRAM = "pages_programmed"
_ERASE = "blocks_erased"


class FlashCounters:
    """Operation counters for a backend (reads/programs/erases)."""

    __slots__ = ("pages_read", "pages_programmed", "blocks_erased")

    def __init__(self) -> None:
        self.pages_read = 0
        self.pages_programmed = 0
        self.blocks_erased = 0


class PageOp:
    """One page operation, queued at or held by a die or bus. ``done`` is
    called with it when it completes; ``tag`` is the caller's."""

    __slots__ = ("kind", "die", "priority", "transfer", "done", "cid",
                 "label", "wear", "token", "tag", "queued", "start", "result")

    def __init__(self, kind: str, die: int, priority: int, transfer: int,
                 done, cid: int, label: str, wear, token, tag,
                 queued: int):
        self.kind, self.die, self.priority = kind, die, priority
        self.transfer = transfer  # bus hold in ns (0 for an erase)
        self.done, self.tag = done, tag
        self.cid, self.label = cid, label
        self.wear, self.token = wear, token
        self.queued = self.start = queued  # arrival; then the die's start
        self.result = 0


class _Unit(Process, PriorityFifo):
    """A die or bus. Its generator parks on a bare ``yield``; a record
    arriving at an idle unit, or the next one at the end of a hold,
    becomes :attr:`current` and appends the unit to the ready deque where
    a ``Resource`` grant would have gone. The hold starts when it pops."""

    __slots__ = ("current", "_waiting", "_levels")

    def __init__(self, sim: Simulator, name: str, serve, *args):
        self.current: Optional[PageOp] = None
        self._waiting = 0
        self._levels: dict[int, deque[PageOp]] = {}
        Process.__init__(self, sim, serve(self, *args), name)

    def _block_on(self, target) -> None:
        if target is not None:  # a bare yield parks
            Process._block_on(self, target)

    def arrive(self, op: PageOp) -> None:
        """Queue ``op``; an idle unit takes it at once."""
        if self.current is None:
            self.current = op
            self.sim._ready.append(self)
        else:
            self._enqueue(op, op.priority)

    def hand_off(self) -> None:
        """End the hold: take the next record, as ``Resource.release``."""
        self.current = self._dequeue() if self._waiting else None
        if self.current is not None:
            self.sim._ready.append(self)


class FlashBackend:
    """The NAND array: per-die execution units and per-channel buses."""

    def __init__(
        self,
        sim: Simulator,
        geometry: FlashGeometry,
        timing: NandTiming,
        channel_bandwidth: int = 800 * MIB,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        faults=None,
    ):
        if channel_bandwidth <= 0:
            raise ValueError(f"channel bandwidth must be positive, got {channel_bandwidth}")
        self.sim = sim
        self.geometry = geometry
        self.timing = timing
        self.channel_bandwidth = channel_bandwidth
        self.tracer = resolve_tracer(tracer)
        #: Optional FaultInjector (DESIGN.md §12). ``None`` — the default
        #: — must add zero events and zero RNG draws to every operation.
        self.faults = faults if faults is not None and faults.plan.media_enabled else None
        self.counters = FlashCounters()
        self._die_busy_ns = [0] * geometry.total_dies
        #: Memoized bus-transfer times by size (request sizes repeat
        #: endlessly, so transfer_ns runs once per distinct size).
        self._page_transfer_ns = self.transfer_ns(geometry.page_size)
        self._transfer_cache = {geometry.page_size: self._page_transfer_ns}
        self._op_counters = self._die_busy_gauges = None
        if metrics is not None:
            self._op_counters = {kind: metrics.counter(f"nand.{kind}")
                                 for kind in (_READ, _PROGRAM, _ERASE)}
            self._die_busy_gauges = [metrics.gauge(f"nand.die{i}.busy_ns")
                                     for i in range(geometry.total_dies)]
        self.buses = [_Unit(sim, f"bus{i}", self._serve_bus)
                      for i in range(geometry.channels)]
        self._bus_of_die = [self.buses[geometry.channel_of_die(i)]
                            for i in range(geometry.total_dies)]
        self.dies = [_Unit(sim, f"die{i}", self._serve_die, i)
                     for i in range(geometry.total_dies)]

    # -- helpers -----------------------------------------------------------
    def transfer_ns(self, nbytes: int) -> int:
        """Time to move ``nbytes`` across one channel bus."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        return round(nbytes * 1e9 / self.channel_bandwidth)

    def die_busy_ns(self, die_index: int) -> int:
        """Cumulative busy time of a die (for utilization accounting)."""
        return self._die_busy_ns[die_index]

    def aggregate_program_bandwidth(self) -> float:
        """Raw program bandwidth ceiling in bytes/second."""
        return self.timing.program_bandwidth(self.geometry)

    # -- page operations -----------------------------------------------------
    # Each queues a record at its first unit. Without a ``done`` callable
    # it returns an Event that fires with the record. ``cid``/``label``
    # tag the trace spans; ``wear`` is the touched unit's odometer.
    def read(self, die: int, priority: int = 0,
             transfer_bytes: int | None = None, cid: int = 0,
             label: str = "read", wear=None,
             done: Callable | None = None, tag=None):
        """NAND page read: sense on the die, then stream ``transfer_bytes``
        (default: the page) out on the bus. With faults armed a disturbed
        page re-senses through the retry ladder on the held die; the
        result is True if the ladder exhausted."""
        nbytes = self.geometry.page_size if transfer_bytes is None else transfer_bytes
        transfer = self._transfer_cache.get(nbytes)
        if transfer is None:
            transfer = self._transfer_cache[nbytes] = self.transfer_ns(nbytes)
        event = Event(self.sim) if done is None else None
        self.dies[die].arrive(PageOp(_READ, die, priority, transfer,
                                     done or event.succeed, cid, label, wear,
                                     None, tag, self.sim.now))
        return event

    def program(self, die: int, priority: int = 0, cid: int = 0,
                label: str = "program", token: list | None = None,
                wear=None, done: Callable | None = None, tag=None):
        """NAND page program: stream in on the bus, then program the die.
        The result counts injected failures, each re-programmed from the
        die register (one more ``program_ns``, no bus traffic). A page
        whose power-loss ``token`` (``[cancelled, started]``) is cancelled
        when its die would start crossed its bus, and its result is -1."""
        event = Event(self.sim) if done is None else None
        self._bus_of_die[die].arrive(PageOp(
            _PROGRAM, die, priority, self._page_transfer_ns,
            done or event.succeed, cid, label, wear, token, tag, self.sim.now))
        return event

    def erase(self, die: int, priority: int = 0, cid: int = 0,
              label: str = "erase", wear=None,
              done: Callable | None = None):
        """NAND block erase; the result is True if the block went bad. A
        successful erase bumps the unit's wear odometer."""
        event = Event(self.sim) if done is None else None
        self.dies[die].arrive(PageOp(_ERASE, die, priority, 0,
                                     done or event.succeed, cid, label, wear,
                                     None, None, self.sim.now))
        return event

    # -- servers ---------------------------------------------------------------
    def _serve_die(self, unit: _Unit, die: int) -> Generator:
        sim = self.sim
        faults = self.faults
        base_ns = {_READ: self.timing.read_ns, _PROGRAM: self.timing.program_ns,
                   _ERASE: self.timing.erase_ns}
        bus = self._bus_of_die[die]
        counters = self.counters
        busy = self._die_busy_ns
        tracer = self.tracer
        traced = tracer.enabled
        track = f"die{die}"
        while True:
            yield
            op = unit.current
            kind = op.kind
            op.start = sim.now
            token = op.token
            if token is not None:
                if token[0]:
                    op.result = -1
                    unit.hand_off()
                    op.done(op)
                    continue
                token[1] = True  # the PLP commit point
            base = hold = base_ns[kind]
            yield hold
            if faults is not None:
                # Outcomes are drawn when the base hold ends; the
                # extension is held on the same die.
                if kind is _READ:
                    extra, op.result = faults.read_outcome(op.wear)
                elif kind is _PROGRAM:
                    extra = op.result = faults.program_outcome(op.wear)
                else:
                    extra, op.result = faults.erase_outcome(op.wear)
                if extra:
                    extra *= base
                    yield extra
                    hold += extra
                if kind is _ERASE and not op.result and op.wear is not None:
                    faults.note_erase(op.wear)
            busy[die] += hold
            if self._op_counters is not None:
                self._op_counters[kind].inc()
                self._die_busy_gauges[die].set(busy[die])
            unit.hand_off()
            if kind is _READ:
                bus.arrive(op)
                continue
            if kind is _PROGRAM:
                counters.pages_programmed += 1
                if traced:  # a program's span starts at its arrival
                    tracer.span("nand", f"{op.label}.page", op.queued, sim.now,
                                track=track, cid=op.cid, die=die)
            else:
                counters.blocks_erased += 1
                if traced:
                    tracer.span("nand", f"{op.label}.block", op.start, sim.now,
                                track=track, cid=op.cid, die=die)
            op.done(op)

    def _serve_bus(self, unit: _Unit) -> Generator:
        sim = self.sim
        dies = self.dies
        counters = self.counters
        tracer = self.tracer
        traced = tracer.enabled
        while True:
            yield
            op = unit.current
            yield op.transfer
            unit.hand_off()
            if op.kind is _PROGRAM:
                dies[op.die].arrive(op)
                continue
            counters.pages_read += 1
            if traced:
                track = f"die{op.die}"
                if op.start > op.queued:
                    tracer.span("queue", f"{op.label}.die_wait", op.queued,
                                op.start, track=track, cid=op.cid)
                tracer.span("nand", f"{op.label}.page", op.start, sim.now,
                            track=track, cid=op.cid, die=op.die)
            op.done(op)
