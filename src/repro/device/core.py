"""The shared device core under both SSD models.

The paper's central comparison runs a ZNS device (ZN540) and a
conventional device (SN640) with *the same hardware* under identical
host stacks; the simulated models mirror that by sharing one controller
pipeline. :class:`DeviceCore` owns everything the two models share:

* the **controller front-end** (single-server resource + per-command
  service time + jitter) and its trace spans,
* the **completion path** — :meth:`_complete` stamps the completion,
  feeds :class:`DeviceCounters`, the latency histograms, and the
  command trace span,
* the capacitor-backed **write buffer** and the per-die flush tail
  (:meth:`_flush_page_to_die`: program the page, drain the buffer),
* the per-request costs (:meth:`_io_shape`): a pure function of opcode,
  LBA count and the namespace LBA format (Observation #1), computed once
  per shape and fixed for the device's lifetime.

:class:`~repro.zns.device.ZnsDevice` and
:class:`~repro.conv.device.ConvDevice` are specializations holding only
what genuinely differs: the zone state machine + firmware management
engine on one side, the page-mapped FTL + garbage collector on the
other. Host stacks, tenants and workloads are typed against
:class:`DeviceCore` and read its attributes directly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Generator, NamedTuple, Optional

from ..hostif.commands import Command, Completion, Opcode
from ..hostif.namespace import LbaFormat, Namespace
from ..hostif.status import Status
from ..obs.metrics import DEFAULT_LATENCY_BUCKETS_NS, Counter, MetricsRegistry
from ..obs.tracer import Tracer, resolve_tracer
from ..sim.engine import Event, Simulator
from ..sim.resources import Container, Resource
from ..sim.rng import LatencySampler, StreamFactory

if TYPE_CHECKING:
    from ..zns.profiles import DeviceProfile

__all__ = ["DeviceCore", "DeviceCounters", "IoShape", "PRIO_IO", "PRIO_MGMT",
           "PRIO_PANIC"]

#: Firmware/flash scheduling priorities (lower value served first).
PRIO_IO = 0
PRIO_MGMT = 10
#: Power-loss handling preempts everything else queued at the controller.
PRIO_PANIC = -100

#: One fast-forward aging epoch adds 1..2× this many erase cycles to
#: every wear unit (:meth:`DeviceCore.age`).
AGING_CHURN_ERASES = 4


@lru_cache(maxsize=None)
def _die_busy_keys(dies: int) -> tuple[str, ...]:
    """Telemetry keys of the per-die busy totals, built once per die count."""
    return tuple(f"nand.die{i}.busy_ns" for i in range(dies))


class IoShape(NamedTuple):
    """The costs of one request shape (one per ``(opcode, nlb)``)."""

    #: Host-visible transfer size (``nlb`` × LBA size).
    nbytes: int
    #: Nominal controller service time (pre-jitter).
    service_ns: int
    #: DMA + buffer-admission time (writes/appends; 0 otherwise).
    admit_ns: int
    #: Firmware mapping-update debt one completion generates.
    fw_ns: int


class DeviceCounters:
    """Completion accounting, backed by a :class:`MetricsRegistry`.

    The registry is the single source of truth; the dict-style
    attributes (``completed``, ``errors``, ``bytes_written``,
    ``bytes_read``) are read-only views of it.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._completed = {
            op: self.metrics.counter(f"device.completed.{op.value}")
            for op in Opcode
        }
        self._bytes_written = self.metrics.counter("device.bytes_written")
        self._bytes_read = self.metrics.counter("device.bytes_read")
        self._errors: dict[Status, Counter] = {}

    def record(self, completion: Completion, nbytes: int) -> None:
        if completion.ok:
            # Direct ``.value`` bumps (amounts are known non-negative):
            # this runs once per completed command even with observability
            # disabled, so it must stay as close to a plain ``+=`` as the
            # registry backing allows.
            opcode = completion.command.opcode
            self._completed[opcode].value += 1
            if opcode in (Opcode.WRITE, Opcode.APPEND):
                self._bytes_written.value += nbytes
            elif opcode is Opcode.READ:
                self._bytes_read.value += nbytes
        else:
            counter = self._errors.get(completion.status)
            if counter is None:
                counter = self.metrics.counter(
                    f"device.errors.{completion.status.value}"
                )
                self._errors[completion.status] = counter
            counter.inc()

    @property
    def completed(self) -> dict[Opcode, int]:
        return {op: counter.value for op, counter in self._completed.items()}

    @property
    def errors(self) -> dict[Status, int]:
        return {status: c.value for status, c in self._errors.items() if c.value}

    @property
    def bytes_written(self) -> int:
        return self._bytes_written.value

    @property
    def bytes_read(self) -> int:
        return self._bytes_read.value


class DeviceCore:
    """Shared controller pipeline; subclasses add the media-side model."""

    #: Trace-process name prefix; subclasses override ("zns" / "conv").
    kind = "device"
    #: The zone manager of a zoned model; ``None`` marks a conventional
    #: namespace (host stacks, tenants and the conformance driver branch
    #: on it).
    zones = None

    def __init__(
        self,
        sim: Simulator,
        profile: DeviceProfile,
        capacity_bytes: int,
        lba_format: LbaFormat,
        streams: StreamFactory,
        tracer: Optional[Tracer],
        metrics: Optional[MetricsRegistry],
        io_stream: str,
        faults=None,
        telemetry=None,
    ):
        self.sim = sim
        self.profile = profile
        #: Retained for fault-adjacent streams created after construction
        #: (the ``"aging"`` stream behind :meth:`age`, DESIGN.md §17).
        self._streams = streams
        self.tracer = resolve_tracer(tracer)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: True when the caller asked for observability. Hot paths gate
        #: per-command histogram/gauge updates on this so default runs
        #: pay only the always-on DeviceCounters facade. A telemetry
        #: collector implies observability: the sampler reads this
        #: device's registry, so the instrumented paths must feed it even
        #: when the caller never asked for aggregate ``--metrics`` output
        #: (the private registry created above absorbs them).
        self.observing = (
            metrics is not None or self.tracer.enabled or telemetry is not None
        )
        self.tracer.register_process(f"{self.kind}:{profile.name}")
        self.namespace = Namespace(capacity_bytes, lba_format)
        self.controller = Resource(sim, capacity=1, name="controller")
        self.buffer = Container(sim, capacity=profile.write_buffer_bytes, name="wbuf")
        self._io_jitter = LatencySampler(streams.stream(io_stream), profile.jitter_sigma)
        self.counters = DeviceCounters(self.metrics)
        self._latency_hist = {
            op: self.metrics.histogram(
                f"device.latency_ns.{op.value}", DEFAULT_LATENCY_BUCKETS_NS
            )
            for op in Opcode
        }
        self._wbuf_gauge = self.metrics.gauge("device.wbuf.level_bytes")
        #: Optional FaultInjector (DESIGN.md §12), built by the caller
        #: from a FaultPlan against this device's "faults" RNG stream.
        #: ``None`` (the default) must leave every path byte-identical.
        if faults is not None and faults.enabled:
            from ..faults.plan import FaultInjector

            self.faults = FaultInjector(faults, streams.stream("faults"),
                                        self.metrics)
            if faults.power_cut_at_ns is not None:
                sim.process(self._power_cut_process(), name="power-cut")
        else:
            self.faults = None
        #: Command id of the most recent ``submit`` (host stacks read it
        #: to tie their own spans to the device-assigned trace id).
        self.last_cid = 0
        self._page_size = profile.geometry.page_size
        self._block_size = self.namespace.block_size
        self._capacity_lbas = self.namespace.capacity_lbas
        self._shape_cache: dict[tuple[Opcode, int], IoShape] = {}
        #: Windowed timeseries sampler (DESIGN.md §13), attached to this
        #: device's simulator tick hook. ``None`` (the default) leaves
        #: the simulator hook-free and every path byte-identical. The
        #: subclass-populated hooks it reads (``backend``, zone tables,
        #: FTL) are only touched at window boundaries during the run,
        #: after construction completes.
        self.telemetry = telemetry.attach(self) if telemetry is not None else None

    # ------------------------------------------------------------------ api
    def submit(self, command: Command) -> Event:
        """Begin executing a command; the event fires with a Completion."""
        if command.submitted_at < 0:
            command.submitted_at = self.sim.now
        cid = (
            self.tracer.begin_command(command.opcode.value)
            if self.tracer.enabled
            else 0
        )
        self.last_cid = cid
        # The process event itself is the completion event (the generator
        # returns the Completion): one event instead of a done-event plus
        # a never-watched process event per command.
        return self.sim.process(self._dispatch(command, cid))

    def _dispatch(self, command: Command, cid: int) -> Generator:
        """Map an opcode to its executor generator (model-specific)."""
        raise NotImplementedError

    # --------------------------------------------------------------- helpers
    def _complete(self, command: Command, status: Status,
                  nbytes: int = 0, assigned_lba: Optional[int] = None,
                  cid: int = 0) -> Completion:
        completion = Completion(command, status, self.sim.now, assigned_lba)
        self.counters.record(completion, nbytes)
        if self.observing and status.ok and command.submitted_at >= 0:
            self._latency_hist[command.opcode].observe(
                self.sim.now - command.submitted_at
            )
        if self.tracer.enabled:
            self.tracer.span(
                "command", command.opcode.value,
                command.submitted_at if command.submitted_at >= 0 else self.sim.now,
                self.sim.now, track="commands", cid=cid,
                opcode=command.opcode.value, status=status.value,
                slba=command.slba, nlb=command.nlb,
            )
        return completion

    def _io_shape(self, opcode: Opcode, nlb: int) -> IoShape:
        """The costs of an ``(opcode, nlb)`` request, computed once per shape."""
        shape = self._shape_cache.get((opcode, nlb))
        if shape is None:
            profile = self.profile
            nbytes = self.namespace.bytes_of(nlb)
            service_ns = profile.cmd_service_ns(opcode, nbytes, nlb,
                                                self._block_size)
            admit_ns = 0
            if opcode is Opcode.WRITE or opcode is Opcode.APPEND:
                admit_ns = profile.dma_ns(nbytes) + profile.write_admit_ns
                if opcode is Opcode.APPEND:
                    admit_ns += profile.append_alloc_ns
            fw_ns = 0
            if opcode in (Opcode.READ, Opcode.WRITE, Opcode.APPEND):
                fw_ns = profile.fw_io_ns(opcode)
            shape = IoShape(nbytes, service_ns, admit_ns, fw_ns)
            self._shape_cache[(opcode, nlb)] = shape
        return shape

    def _controller_service(self, service_ns: int, cid: int = 0,
                            admit=None, open_ns: int = 0) -> Generator:
        """Hold the controller for one jittered service time.

        ``admit``, when given, runs once the controller is granted and
        before the jitter draw; it returns ``(status, opened, ...)``,
        which this generator returns, and ``open_ns`` is added to the
        service when the admission succeeded and opened a zone.
        """
        traced = self.tracer.enabled
        queued_at = self.sim.now if traced else 0
        req = self.controller.request(PRIO_IO)
        yield req
        granted_at = self.sim.now if traced else 0
        admitted = None
        if admit is not None:
            admitted = admit()
            if admitted[0].ok and admitted[1]:
                service_ns += open_ns
        yield self.sim.timeout(self._io_jitter.jitter(service_ns))
        self.controller.release(req)
        if traced:
            if granted_at > queued_at:
                self.tracer.span("queue", "controller.wait", queued_at,
                                 granted_at, track="controller", cid=cid)
            self.tracer.span("controller", "controller.service", granted_at,
                             self.sim.now, track="controller", cid=cid)
        return admitted

    # -------------------------------------------------------------- flushing
    def _flush_page_to_die(self, die: int, cancel: list | None = None,
                           wear=None) -> Generator:
        """Program one buffered page to a die, then drain the buffer.

        Returns the backend's injected-program-failure count, or ``-1``
        when a power cut cancelled the page before it reached the media
        (the power-cut handler already drained its bytes). ``wear`` is
        the touched unit's odometer for wear-dependent failure rates.
        """
        failures = yield from self.backend.program_page(
            die, priority=PRIO_IO, label="flush", cancel=cancel, wear=wear)
        if failures < 0:
            return failures
        yield self.buffer.get(self._page_size)
        if self.observing:
            self._wbuf_gauge.set(self.buffer.level)
        return failures

    # ------------------------------------------------------------ power loss
    def _power_cut_process(self) -> Generator:
        """Scheduled power-cut + recovery replay (DESIGN.md §12).

        At the cut instant the controller is seized at ``PRIO_PANIC``,
        the queued-but-unprogrammed write-buffer tail beyond the PLP
        capacitor budget is dropped (in-flight NAND programs complete on
        capacitor energy), model-specific state is rolled back
        (:meth:`_power_loss_drop`), and the firmware "boot" cost is paid
        while the controller is held — every command queued behind the
        panic request observes the recovery latency.
        """
        plan = self.faults.plan
        yield self.sim.timeout(plan.power_cut_at_ns)
        req = self.controller.request(PRIO_PANIC)
        yield req
        target = self.buffer.level - plan.plp_budget_bytes
        target -= target % self._block_size
        dropped, recovery_units = (
            self._power_loss_drop(target) if target > 0 else (0, 0)
        )
        if dropped:
            self.buffer.drain(dropped)
            if self.observing:
                self._wbuf_gauge.set(self.buffer.level)
        recovery = plan.recovery_base_ns + self._recovery_ns(recovery_units)
        self.faults.power_cuts.inc()
        self.faults.bytes_lost.inc(dropped)
        self.faults.recovery_ns.inc(recovery)
        if self.tracer.enabled:
            start = self.sim.now
            self.tracer.instant("fault", "power_cut", start,
                                track="controller", bytes_lost=dropped)
        yield self.sim.timeout(recovery)
        if self.tracer.enabled:
            self.tracer.span("fault", "power_loss_recovery", start,
                             self.sim.now, track="controller")
        self.controller.release(req)

    # ----------------------------------------------------------------- wear
    def age(self, epochs: int) -> int:
        """Fast-forward ``epochs`` "days" of wear without simulating them.

        Each epoch replays one day of churn deterministically from the
        dedicated ``"aging"`` RNG stream: every wear unit (a zone, or an
        erase block on the conventional FTL) gains
        1..2×``AGING_CHURN_ERASES`` erase cycles (uneven by design — real
        fleets don't wear uniformly) and its read-disturb exposure
        resets, as an erase would in-run. Only the *erase odometer*
        carries over — scattered program failures during background
        churn are transient (the firmware already handled them), so they
        do not feed the in-run failure-retirement ladder. The model then
        applies its erase-count retirement (:meth:`_retire_aged`). A
        no-op (zero draws, zero state change) when no fault plan is
        armed, so fault-free output stays byte-identical. Returns the
        number of units retired by the call.

        Draw counts are fixed per epoch (one vector draw) and
        independent of unit state, so aging is bit-reproducible per
        (seed, salt, epochs) at any ``--jobs`` (DESIGN.md §17).
        """
        if epochs <= 0 or self.faults is None:
            return 0
        injector = self.faults
        rng = self._streams.stream("aging")
        wears = [injector.wear.unit(key) for key in self._wear_unit_ids()]
        for _ in range(epochs):
            erases = rng.integers(
                1, 2 * AGING_CHURN_ERASES + 1, size=len(wears)
            ).tolist()
            for wear, count in zip(wears, erases):
                wear.erase_count += count
                wear.reads_since_erase = 0
        high = max(wear.erase_count for wear in wears)
        if high > injector.max_erase_count.value:
            injector.max_erase_count.set(high)
        return self._retire_aged(wears)

    def _wear_unit_ids(self) -> list[int]:
        """Wear-ledger keys :meth:`age` advances, in draw order (model hook)."""
        raise NotImplementedError

    def _retire_aged(self, wears: list) -> int:
        """Apply erase-count retirement after :meth:`age` (model hook);
        returns the units retired. Conventional blocks retire through GC
        erase failures instead, so the default retires none."""
        return 0

    # ------------------------------------------------------------ telemetry
    def _telemetry_levels(self) -> dict:
        """Instantaneous levels sampled per telemetry window (model hook).

        Keys are column names; values are point-in-time numbers the
        registry does not carry. Subclasses extend with their media-side
        state (zone census, FTL free space, GC occupancy).
        """
        controller = self.controller
        return {
            "ctrl.queue": controller.queue_length + controller.in_use,
            "wbuf.level_bytes": self.buffer.level,
        }

    def _telemetry_cumulative(self) -> tuple[tuple[str, ...], list[int]]:
        """Monotonic ``*.busy_ns`` totals as ``(keys, totals)``, the keys
        fixed per device; the sampler emits each as a ``*.busy_frac`` of
        the window. ``totals`` may be the live list: copy it to keep it."""
        busy = self.backend._die_busy_ns
        return _die_busy_keys(len(busy)), busy

    def _power_loss_drop(self, target: int) -> tuple[int, int]:
        """Drop up to ``target`` unpersisted buffered bytes (model hook).

        Returns ``(bytes_dropped, recovery_units)`` where the units feed
        :meth:`_recovery_ns` (rolled-back zones for ZNS, mapped pages
        for the conventional FTL).
        """
        return 0, 0

    def _recovery_ns(self, units: int) -> int:
        """Model-specific boot-replay cost beyond the fixed base."""
        return 0
