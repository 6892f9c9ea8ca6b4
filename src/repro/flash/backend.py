"""Event-driven NAND flash array: dies and channel buses as resources.

The backend is the *shared physical substrate* under both the ZNS device
model and the conventional-SSD model. Each die is a single-server
resource (one NAND operation at a time); each channel is a single-server
bus with a finite transfer bandwidth. Contention at these resources is
what produces the interference effects the paper measures: user reads
queueing behind GC programs (§III-F), and saturation of the aggregate
program bandwidth (§III-D).

The backend is addressed at die granularity — logical-to-physical page
bookkeeping belongs to the FTLs layered above it — which keeps the hot
event loop small while preserving every queueing effect.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer, resolve_tracer
from ..sim.engine import Simulator
from ..sim.resources import Resource
from .geometry import MIB, FlashGeometry
from .nand import NandTiming

__all__ = ["FlashBackend", "FlashCounters"]


class FlashCounters:
    """Operation counters for a backend (reads/programs/erases)."""

    __slots__ = ("pages_read", "pages_programmed", "blocks_erased")

    def __init__(self) -> None:
        self.pages_read = 0
        self.pages_programmed = 0
        self.blocks_erased = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "pages_read": self.pages_read,
            "pages_programmed": self.pages_programmed,
            "blocks_erased": self.blocks_erased,
        }


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
        self.metrics = metrics
        #: Optional FaultInjector (DESIGN.md §12). ``None`` — the default
        #: — must add zero events and zero RNG draws to every operation.
        self.faults = faults if faults is not None and faults.plan.media_enabled else None
        self.dies = [
            Resource(sim, name=f"die{i}") for i in range(geometry.total_dies)
        ]
        self.buses = [
            Resource(sim, name=f"bus{i}") for i in range(geometry.channels)
        ]
        self.counters = FlashCounters()
        self._die_busy_ns = [0] * geometry.total_dies
        #: Hot-path lookup tables: the bus serving each die, and memoized
        #: bus-transfer times by size (request sizes repeat endlessly, so
        #: the division/round in transfer_ns runs once per distinct size).
        self._bus_of_die = [
            self.buses[geometry.channel_of_die(i)]
            for i in range(geometry.total_dies)
        ]
        self._page_transfer_ns = self.transfer_ns(geometry.page_size)
        self._transfer_cache = {geometry.page_size: self._page_transfer_ns}
        if metrics is not None:
            self._op_counters = {
                "read": metrics.counter("nand.pages_read"),
                "program": metrics.counter("nand.pages_programmed"),
                "erase": metrics.counter("nand.blocks_erased"),
            }
            self._die_busy_gauges = [
                metrics.gauge(f"nand.die{i}.busy_ns")
                for i in range(geometry.total_dies)
            ]
        else:
            self._op_counters = None
            self._die_busy_gauges = None

    # -- helpers -----------------------------------------------------------
    def transfer_ns(self, nbytes: int) -> int:
        """Time to move ``nbytes`` across one channel bus."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        return round(nbytes * 1e9 / self.channel_bandwidth)

    def die_queue_depth(self, die_index: int) -> int:
        """Operations queued or executing at a die (congestion signal)."""
        die = self.dies[die_index]
        return die.in_use + die.queue_length

    def die_busy_ns(self, die_index: int) -> int:
        """Cumulative busy time of a die (for utilization accounting)."""
        return self._die_busy_ns[die_index]

    def aggregate_program_bandwidth(self) -> float:
        """Raw program bandwidth ceiling in bytes/second."""
        return self.timing.program_bandwidth(self.geometry)

    def _publish(self, op: str, die_index: int) -> None:
        self._op_counters[op].inc()
        self._die_busy_gauges[die_index].set(self._die_busy_ns[die_index])

    # -- physical operations (generator processes) ---------------------------
    def read_page(self, die_index: int, priority: int = 0,
                  transfer_bytes: int | None = None,
                  cid: int = 0, label: str = "read",
                  fault_out: list | None = None,
                  wear=None) -> Generator:
        """NAND page read: sense on the die, then stream out on the bus.

        ``transfer_bytes`` limits the bus transfer to the requested slice
        of the page (a 4 KiB read senses a whole page but only moves
        4 KiB over the channel). ``cid``/``label`` tag the trace spans
        (e.g. the GC relocation path labels its reads ``gc``).

        With faults armed, a read-disturbed page re-senses through the
        firmware retry ladder (extra die-held latency per retry); if the
        ladder exhausts, the die index is appended to ``fault_out`` so
        the caller can fail the command with ``MEDIA_UNRECOVERED_READ``.
        ``wear`` is the touched unit's :class:`~repro.faults.wear.UnitWear`
        (zone or block odometer): it selects the wear-dependent disturb
        probability and accumulates read exposure (DESIGN.md §17).
        """
        die = self.dies[die_index]
        traced = self.tracer.enabled
        queued_at = self.sim.now if traced else 0
        req = die.request(priority)
        yield req
        # The die is held exclusively for exactly ``read_ns``, so busy
        # accounting can use the constant instead of clock reads (the
        # timestamps below are only needed for trace spans).
        start = self.sim.now if traced else 0
        yield self.sim.timeout(self.timing.read_ns)
        busy_ns = self.timing.read_ns
        if self.faults is not None:
            retries, uncorrectable = self.faults.read_outcome(wear)
            if retries:
                step = self.faults.plan.read_retry_step_ns or self.timing.read_ns
                yield self.sim.timeout(retries * step)
                busy_ns += retries * step
            if uncorrectable and fault_out is not None:
                fault_out.append(die_index)
        self._die_busy_ns[die_index] += busy_ns
        if self._op_counters is not None:
            self._publish("read", die_index)
        die.release(req)
        bus = self._bus_of_die[die_index]
        breq = bus.request(priority)
        yield breq
        nbytes = self.geometry.page_size if transfer_bytes is None else transfer_bytes
        transfer = self._transfer_cache.get(nbytes)
        if transfer is None:
            transfer = self._transfer_cache[nbytes] = self.transfer_ns(nbytes)
        yield self.sim.timeout(transfer)
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
                     wear=None) -> Generator:
        """NAND page program: stream in on the bus, then program the die.

        Returns the number of injected program failures absorbed by the
        firmware (each costs one extra ``program_ns`` on the held die —
        the remap re-programs from the die register, no bus traffic), or
        ``-1`` if ``cancel`` (a power-loss token ``[cancelled, started]``)
        was set before the program began: the page never reached the
        media and the caller must not drain the write buffer for it.
        """
        traced = self.tracer.enabled
        if cancel is not None and cancel[0]:
            return -1
        started = self.sim.now if traced else 0
        bus = self._bus_of_die[die_index]
        breq = bus.request(priority)
        yield breq
        yield self.sim.timeout(self._page_transfer_ns)
        bus.release(breq)
        die = self.dies[die_index]
        req = die.request(priority)
        yield req
        if cancel is not None:
            if cancel[0]:
                die.release(req)
                return -1
            # Commit point: once programming starts, PLP capacitor energy
            # carries the operation to completion on power loss.
            cancel[1] = True
        yield self.sim.timeout(self.timing.program_ns)
        busy_ns = self.timing.program_ns
        failures = 0
        if self.faults is not None:
            failures = self.faults.program_outcome(wear)
            if failures:
                extra = failures * self.timing.program_ns
                yield self.sim.timeout(extra)
                busy_ns += extra
        self._die_busy_ns[die_index] += busy_ns
        if self._op_counters is not None:
            self._publish("program", die_index)
        die.release(req)
        self.counters.pages_programmed += 1
        if traced:
            self.tracer.span("nand", f"{label}.page", started, self.sim.now,
                             track=f"die{die_index}", cid=cid, die=die_index)
        return failures

    def erase_block(self, die_index: int, priority: int = 0,
                    cid: int = 0, label: str = "erase",
                    wear=None) -> Generator:
        """NAND block erase: occupies the die for the (long) erase time.

        Returns ``True`` if the erase exhausted its retry budget and the
        block went bad. A *successful* erase bumps the unit's wear
        odometer (erase count up, read exposure reset).
        """
        die = self.dies[die_index]
        traced = self.tracer.enabled
        req = die.request(priority)
        yield req
        start = self.sim.now if traced else 0
        yield self.sim.timeout(self.timing.erase_ns)
        busy_ns = self.timing.erase_ns
        bad_block = False
        if self.faults is not None:
            retries, bad_block = self.faults.erase_outcome(wear)
            if retries:
                extra = retries * self.timing.erase_ns
                yield self.sim.timeout(extra)
                busy_ns += extra
            if not bad_block and wear is not None:
                self.faults.note_erase(wear)
        self._die_busy_ns[die_index] += busy_ns
        if self._op_counters is not None:
            self._publish("erase", die_index)
        die.release(req)
        self.counters.blocks_erased += 1
        if traced:
            self.tracer.span("nand", f"{label}.block", start, self.sim.now,
                             track=f"die{die_index}", cid=cid, die=die_index)
        return bad_block
