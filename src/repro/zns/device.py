"""The simulated ZNS SSD.

Command flow (see DESIGN.md §5 for the calibration story):

* every command first passes through the **controller front-end**, a
  single-server resource whose per-command service time sets the per-op
  IOPS caps (write ≈ 186 K/s, append ≈ 132 K/s, read ≈ 424 K/s);
* **writes/appends** are then DMA'd and admitted into the capacitor-backed
  write buffer (completion happens here — hence ~11 µs write latency);
  a background flusher programs buffered pages to the zone's die stripe,
  capping sustained bandwidth at the flash program rate and creating the
  die backlogs that inflate concurrent read latency (§III-F);
* **reads** fan out to the dies holding the spanned pages (NAND tR + bus
  transfer), queueing FIFO behind any flush programs at those dies;
* **zone management** runs on the firmware engine. Management work is
  *lower priority than I/O mapping updates*: each completed I/O adds
  mapping-update debt that stalls in-progress management work, so
  concurrent I/O inflates ``reset`` latency while resets never delay I/O
  (Observations #12/#13).

The controller/buffer/completion plumbing lives in
:class:`repro.device.core.DeviceCore` (shared with the conventional
model), and so do the per-request costs; this module holds only the zone
state machine, striping (each zone's die stripe comes from
:meth:`repro.zns.ftl.ZoneStriping.zone_table`) and the firmware
management engine (DESIGN.md §11).
"""

from __future__ import annotations

from typing import Generator, Optional

from ..device.core import PRIO_IO, PRIO_MGMT, DeviceCore, IoShape
from ..flash.backend import FlashBackend
from ..hostif.commands import Command, Opcode, ZoneAction
from ..hostif.namespace import LBA_4K, LbaFormat
from ..hostif.status import Status
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer
from ..sim.engine import Simulator, us
from ..sim.resources import Resource
from ..sim.rng import LatencySampler, StreamFactory
from .ftl import ZoneStriping
from .profiles import DeviceProfile
from .spec import ZoneState
from .statemachine import ZoneManager
from .zone import Zone

__all__ = ["ZnsDevice"]

#: Telemetry column per zone state, in the census's (declaration) order.
_CENSUS_KEYS = tuple(f"zones.{state.value}" for state in ZoneState)

#: Power-loss recovery cost per rolled-back zone (write-pointer rebuild).
RECOVERY_PER_ZONE_NS = us(150)


class ZnsDevice(DeviceCore):
    """A calibrated, mechanistic ZNS SSD model."""

    kind = "zns"

    def __init__(
        self,
        sim: Simulator,
        profile: DeviceProfile,
        lba_format: LbaFormat = LBA_4K,
        streams: Optional[StreamFactory] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        faults=None,
        telemetry=None,
    ):
        streams = streams or StreamFactory()
        super().__init__(
            sim, profile, profile.capacity_bytes, lba_format, streams,
            tracer, metrics, io_stream="zns-io", faults=faults,
            telemetry=telemetry,
        )
        block = self.namespace.block_size
        self.zones = ZoneManager(
            num_zones=profile.num_zones,
            size_lbas=profile.zone_size_bytes // block,
            cap_lbas=profile.zone_cap_bytes // block,
            max_open=profile.max_open_zones,
            max_active=profile.max_active_zones,
        )
        self.zones.on_transition = self._on_zone_transition
        self.backend = FlashBackend(
            sim, profile.geometry, profile.nand, profile.channel_bandwidth,
            tracer=self.tracer,
            metrics=self.metrics if self.observing else None,
            faults=self.faults,
        )
        self.striping = ZoneStriping(profile.geometry, profile.zone_size_bytes)
        self.firmware = Resource(sim, capacity=1, name="firmware")
        self._mgmt_jitter = LatencySampler(
            streams.stream("zns-mgmt"), profile.mgmt_jitter_sigma
        )
        self._open_gauge = self.metrics.gauge("device.zones.open")
        self._active_gauge = self.metrics.gauge("device.zones.active")
        self._transition_counter = self.metrics.counter("device.zones.transitions")
        self._inflight_writes: dict[int, int] = {}
        self._mgmt_busy: set[int] = set()
        self._zone_residual: dict[int, int] = {}
        self._zone_page_cursor: dict[int, int] = {}
        #: Fault-mode bookkeeping (unused — and unallocated per zone —
        #: when ``self.faults is None``): power-loss cancellation tokens
        #: for queued-but-uncommitted page flushes. Per-zone wear
        #: odometers (erase counts, cumulative program failures, read
        #: exposure) live on ``self.faults.wear`` (DESIGN.md §17).
        self._zone_pending: dict[int, list] = {}
        #: Cumulative firmware mapping-update work generated by I/O; see
        #: the priority note in the module docstring.
        self._fw_debt_ns = 0
        self._exec_table = {
            Opcode.READ: self._exec_read,
            Opcode.WRITE: self._exec_write,
            Opcode.APPEND: self._exec_append,
            Opcode.ZONE_MGMT: self._exec_zone_mgmt,
        }

    # ------------------------------------------------------------------ api
    def _dispatch(self, command: Command, cid: int) -> Generator:
        exec_fn = self._exec_table.get(command.opcode)
        if exec_fn is None:
            raise ValueError(
                f"ZNS device does not support {command.opcode.value} "
                "(reclaim whole zones with reset instead of trim)"
            )
        return exec_fn(command, cid)

    def report_zones(self) -> list[Zone]:
        """Zone report (the nvme-cli ``zns report-zones`` equivalent)."""
        return list(self.zones.zones)

    def force_fill(self, zone_index: int, nlb: int) -> Status:
        """Test/bench fixture: set a zone's occupancy without timed I/O.

        Equivalent (for the state machine and latency model) to writing
        ``nlb`` blocks and closing the zone — the shortcut the occupancy
        benchmarks use instead of issuing ~270 K real 4 KiB writes per
        zone. Unit tests assert the equivalence on small zones.
        """
        zone = self.zones.zones[zone_index]
        if zone.state is not ZoneState.EMPTY:
            return Status.INVALID_ZONE_STATE_TRANSITION
        if nlb < 0 or nlb > zone.cap_lbas:
            return Status.ZONE_BOUNDARY_ERROR
        if nlb == 0:
            return Status.SUCCESS
        status, _ = self.zones.admit_write(zone, zone.wp, nlb)
        if not status.ok:
            return status
        if zone.state is not ZoneState.FULL:
            self.zones.close(zone)
        block = self.namespace.block_size
        self._zone_page_cursor[zone_index] = (nlb * block) // self.profile.geometry.page_size
        return Status.SUCCESS

    def state_snapshot(self) -> dict:
        """Fixture: capture the quiescent device state for :meth:`restore_state`.

        Captures everything that makes later commands behave differently
        — zone states/write pointers, per-zone flush residuals and page
        cursors, and the accumulated firmware mapping debt. RNG streams
        and observability counters are deliberately *not* captured:
        restoring rewinds the device, not the experiment's statistics.

        Requires a quiescent device: no in-flight commands and no pending
        page flushes (``sim.run()`` with no deadline drains everything;
        stable sub-page residuals may remain buffered and are captured).
        The occupancy sweeps use this to rewind between repetitions
        instead of replaying their fill sequences.
        """
        self._require_quiescent("state_snapshot")
        snapshot = {
            "zones": self.zones.state_snapshot(),
            "residual": dict(self._zone_residual),
            "page_cursor": dict(self._zone_page_cursor),
            "fw_debt_ns": self._fw_debt_ns,
        }
        if self.faults is not None:
            # Wear odometers age coherently across multi-point plans:
            # rewinding the device rewinds its lifetime too (§17).
            snapshot["wear"] = self.faults.wear.snapshot()
        return snapshot

    def restore_state(self, snapshot: dict) -> None:
        """Reinstate a :meth:`state_snapshot` image (quiescent device only)."""
        self._require_quiescent("restore_state")
        self.zones.restore_state(snapshot["zones"])
        self._zone_residual = dict(snapshot["residual"])
        self._zone_page_cursor = dict(snapshot["page_cursor"])
        self._fw_debt_ns = snapshot["fw_debt_ns"]
        if self.faults is not None and "wear" in snapshot:
            self.faults.wear.restore(snapshot["wear"])
        # At quiescence the buffered bytes are exactly the stable
        # sub-page residuals; reinstate the snapshot's.
        self.buffer.force_level(sum(self._zone_residual.values()))
        if self.observing:
            self._wbuf_gauge.set(self.buffer.level)

    def _require_quiescent(self, what: str) -> None:
        if self._mgmt_busy or any(self._inflight_writes.values()):
            raise RuntimeError(
                f"{what} requires a quiescent device: commands in flight"
            )
        residual = sum(self._zone_residual.values())
        if self.buffer.level != residual:
            raise RuntimeError(
                f"{what} requires a quiescent device: "
                f"{self.buffer.level - residual} buffered bytes await "
                "page flush; run the simulator to exhaustion first"
            )

    def _wear_unit_ids(self) -> list[int]:
        return [zone.index for zone in self.zones.zones]

    def _retire_aged(self, wears: list) -> int:
        # Erase-count thresholds apply exactly as in-run, so a heavily
        # aged device boots with some zones already READ_ONLY/OFFLINE.
        retired = 0
        for zone, wear in zip(self.zones.zones, wears):
            if self._apply_wear_retirement(zone, wear):
                retired += 1
        return retired

    def debug_prefill_buffer(self, zone_index: int = 0, fraction: float = 1.0) -> int:
        """Experiment warm start: load the write buffer as if the host had
        already written ``fraction`` of its capacity to ``zone_index``.

        Write workloads that overdrive the flash program rate only show
        their steady-state (backpressured) throughput once the buffer is
        full — a transient of up to ~1 s of simulated time. Pre-filling
        removes the transient so short measurement windows report
        steady-state bandwidth exactly. Returns the bytes pre-filled.
        """
        if not 0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        page = self.profile.geometry.page_size
        nbytes = int(self.profile.write_buffer_bytes * fraction) // page * page
        headroom = self.profile.write_buffer_bytes - self.buffer.level
        nbytes = min(nbytes, headroom // page * page)
        if nbytes <= 0:
            return 0
        self.buffer.put(nbytes)
        if self.observing:
            self._wbuf_gauge.set(self.buffer.level)
        self._enqueue_flush(zone_index, nbytes)
        return nbytes

    # --------------------------------------------------------------- helpers
    _telemetry_level_names = (DeviceCore._telemetry_level_names + _CENSUS_KEYS
                              + ("zones.retired", "fw.debt_ns"))

    def _telemetry_levels(self) -> tuple:
        # Census counts by position, in _CENSUS_KEYS order. A state no
        # zone is in is absent (see TelemetrySampler on what that means
        # for the zones.<state> columns).
        (empty, implicit_open, explicit_open, closed, full, read_only,
         offline) = self.zones.census.values()
        return super()._telemetry_levels() + (
            empty or None, implicit_open or None, explicit_open or None,
            closed or None, full or None, read_only or None, offline or None,
            read_only + offline, self._fw_debt_ns,
        )

    def _on_zone_transition(self, zone: Zone, old: ZoneState,
                            new: ZoneState) -> None:
        if not self.observing:
            return
        self._open_gauge.set(self.zones.open_count)
        self._active_gauge.set(self.zones.active_count)
        self._transition_counter.inc()
        if self.tracer.enabled:
            self.tracer.instant(
                "zone", f"{old.name}->{new.name}", self.sim.now,
                track="zones", zone=zone.index,
                open=self.zones.open_count, active=self.zones.active_count,
            )

    def _zone_for_io(self, command: Command) -> tuple[Optional[Zone], Status]:
        nlb = command.nlb
        if command.slba + nlb > self._capacity_lbas:
            return None, Status.LBA_OUT_OF_RANGE
        zone = self.zones.zone_containing(command.slba)
        if zone is None:
            return None, Status.LBA_OUT_OF_RANGE
        if command.slba + nlb > zone.end:
            return None, Status.ZONE_BOUNDARY_ERROR
        return zone, Status.SUCCESS

    # ------------------------------------------------------------------ read
    def _exec_read(self, command: Command, cid: int = 0) -> Generator:
        zone, status = self._zone_for_io(command)
        shape = self._io_shape(Opcode.READ, command.nlb)
        yield from self._controller_service(shape.service_ns, cid)
        if status.ok and zone.state is ZoneState.OFFLINE:
            status = Status.ZONE_IS_OFFLINE  # data is gone; READ_ONLY still reads
        if not status.ok:
            return self._complete(command, status, cid=cid)
        nbytes = shape.nbytes
        offset = (command.slba - zone.zslba) * self._block_size
        spans = self.striping.dies_for_span(zone.index, offset, nbytes)
        nand_started = self.sim.now if self.tracer.enabled else 0
        wear = (self.faults.wear.unit(zone.index)
                if self.backend.faults is not None else None)
        reads = yield self.sim.all_of([self.backend.read(die, PRIO_IO, take, cid, wear=wear)
                                       for die, take in spans])
        if self.tracer.enabled:
            self.tracer.span("nand", "read.fanout", nand_started, self.sim.now,
                             track="nand", cid=cid, dies=len(spans))
        if any(op.result for op in reads.values()):
            # The read-retry ladder exhausted on at least one spanned
            # page: NVMe media error, DNR (the host must not retry).
            return self._complete(command, Status.MEDIA_UNRECOVERED_READ, cid=cid)
        self._fw_debt_ns += shape.fw_ns
        return self._complete(command, Status.SUCCESS, nbytes=nbytes, cid=cid)

    # ----------------------------------------------------------------- write
    def _exec_write(self, command: Command, cid: int = 0) -> Generator:
        zone, status = self._zone_for_io(command)
        shape = self._io_shape(Opcode.WRITE, command.nlb)
        if status.ok and zone.index in self._mgmt_busy:
            status = Status.INVALID_ZONE_STATE_TRANSITION
        if status.ok and self._inflight_writes.get(zone.index, 0) > 0:
            # One in-flight write per zone: the device may reorder
            # requests internally, so a second concurrent write risks a
            # sequential-write violation and is rejected (§II-B).
            status = Status.ZONE_INVALID_WRITE
        if not status.ok:
            yield from self._controller_service(shape.service_ns, cid)
            return self._complete(command, status, cid=cid)
        self._inflight_writes[zone.index] = self._inflight_writes.get(zone.index, 0) + 1
        try:
            status, _ = yield from self._controller_service(
                shape.service_ns, cid,
                lambda: self.zones.admit_write(zone, command.slba, command.nlb),
                self.profile.implicit_open_write_ns,
            )
            if not status.ok:
                return self._complete(command, status, cid=cid)
            yield from self._admit(zone.index, shape, cid, "write.admit")
            return self._complete(command, Status.SUCCESS, nbytes=shape.nbytes,
                                  cid=cid)
        finally:
            self._inflight_writes[zone.index] -= 1

    # ---------------------------------------------------------------- append
    def _exec_append(self, command: Command, cid: int = 0) -> Generator:
        zone, status = self._zone_for_io(command)
        shape = self._io_shape(Opcode.APPEND, command.nlb)
        if status.ok and zone.index in self._mgmt_busy:
            status = Status.INVALID_ZONE_STATE_TRANSITION
        if not status.ok:
            yield from self._controller_service(shape.service_ns, cid)
            return self._complete(command, status, cid=cid)
        status, _, assigned = yield from self._controller_service(
            shape.service_ns, cid,
            lambda: self.zones.admit_append(zone, command.slba, command.nlb),
            self.profile.implicit_open_append_ns,
        )
        if not status.ok:
            return self._complete(command, status, cid=cid)
        yield from self._admit(zone.index, shape, cid, "append.admit")
        return self._complete(command, Status.SUCCESS, nbytes=shape.nbytes,
                              assigned_lba=assigned, cid=cid)

    def _admit(self, zone_index: int, shape: IoShape, cid: int,
               label: str) -> Generator:
        """Write/append tail: DMA the payload into the write buffer, queue
        it for flushing and book the firmware mapping-update debt."""
        nbytes = shape.nbytes
        traced = self.tracer.enabled
        admit_started = self.sim.now if traced else 0
        yield shape.admit_ns
        yield self.buffer.put(nbytes)
        if self.observing:
            self._wbuf_gauge.set(self.buffer.level)
        if traced:
            self.tracer.span("buffer", label, admit_started, self.sim.now,
                             track="buffer", cid=cid, nbytes=nbytes)
        self._enqueue_flush(zone_index, nbytes)
        self._fw_debt_ns += shape.fw_ns

    # -------------------------------------------------------------- flushing
    def _enqueue_flush(self, zone_index: int, nbytes: int) -> None:
        """Queue buffered bytes for programming to the zone's die stripe:
        one program record per full page, completed by :meth:`_flush_done`."""
        page = self._page_size
        total = self._zone_residual.get(zone_index, 0) + nbytes
        if total >= page:
            table = self.striping.zone_table(zone_index)
            width = len(table)
            cursor = self._zone_page_cursor.get(zone_index, 0)
            program, done = self.backend.program, self._flush_done
            pending = wear = token = None
            if self.faults is not None:
                # Fault-aware flushes carry a power-loss cancellation
                # token and attribute program failures to the zone.
                pending = self._zone_pending.setdefault(zone_index, [])
                wear = (self.faults.wear.unit(zone_index)
                        if self.backend.faults is not None else None)
            while total >= page:
                total -= page
                if pending is not None:
                    token = [False, False]  # [cancelled, program started]
                    pending.append(token)
                program(table[cursor % width], PRIO_IO, label="flush",
                        token=token, wear=wear, done=done, tag=zone_index)
                cursor += 1
            self._zone_page_cursor[zone_index] = cursor
        self._zone_residual[zone_index] = total

    def _flush_settled(self, op) -> None:
        self._zone_pending[op.tag].remove(op.token)
        if op.result > 0 and op.wear is not None:
            op.wear.program_failures += op.result
            self._apply_wear_retirement(self.zones.zones[op.tag], op.wear)

    def _apply_wear_retirement(self, zone: Zone, wear) -> bool:
        """Firmware wear accounting: retire a worn zone per the plan.

        Retirement triggers on either ledger — cumulative program
        failures (``retire_*_after``) or erase count (``retire_*_erases``)
        — whichever threshold the zone crosses first. Returns True if
        the zone's state changed.
        """
        plan = self.faults.plan
        state = zone.state
        if state is ZoneState.OFFLINE:
            return False
        if ((plan.retire_offline_after
                and wear.program_failures >= plan.retire_offline_after)
                or (plan.retire_offline_erases
                    and wear.erase_count >= plan.retire_offline_erases)):
            self.zones.retire(zone, ZoneState.OFFLINE)
            self.faults.zones_offlined.inc()
            return True
        if state is ZoneState.READ_ONLY:
            return False
        if ((plan.retire_read_only_after
                and wear.program_failures >= plan.retire_read_only_after)
                or (plan.retire_read_only_erases
                    and wear.erase_count >= plan.retire_read_only_erases)):
            self.zones.retire(zone, ZoneState.READ_ONLY)
            self.faults.zones_read_only.inc()
            return True
        return False

    # ------------------------------------------------------------ power loss
    def _power_loss_drop(self, target: int) -> tuple[int, int]:
        """Drop the unpersisted buffer tail: cancel queued page flushes
        (newest first, highest zone first — a deterministic order) and
        discard sub-page residuals, rolling each zone's write pointer
        back over the lost LBAs. Returns (bytes dropped, zones rolled).
        """
        page = self._page_size
        block = self._block_size
        dropped = 0
        zones_rolled = 0
        candidates = sorted(
            set(self._zone_residual) | set(self._zone_pending), reverse=True
        )
        for zone_index in candidates:
            remaining = target - dropped
            if remaining <= 0:
                break
            lost = 0
            residual = self._zone_residual.get(zone_index, 0)
            take = min(residual, remaining)
            if take:
                self._zone_residual[zone_index] = residual - take
                lost += take
                remaining -= take
            cancelled_pages = 0
            for token in reversed(self._zone_pending.get(zone_index, ())):
                if remaining < page:
                    break
                if token[1]:  # already programming; PLP completes it
                    continue
                token[0] = True
                cancelled_pages += 1
                lost += page
                remaining -= page
            if cancelled_pages:
                self._zone_page_cursor[zone_index] = (
                    self._zone_page_cursor.get(zone_index, 0) - cancelled_pages
                )
            if lost:
                dropped += lost
                rolled = self.zones.power_loss_rollback(
                    self.zones.zones[zone_index], lost // block
                )
                if rolled:
                    zones_rolled += 1
        return dropped, zones_rolled

    def _recovery_ns(self, units: int) -> int:
        return units * RECOVERY_PER_ZONE_NS

    def _drop_residual(self, zone_index: int) -> None:
        """Discard a partial buffered page (zone reset path)."""
        residual = self._zone_residual.pop(zone_index, 0)
        if residual:
            self.buffer.take(residual)
            if self.observing:
                self._wbuf_gauge.set(self.buffer.level)
        self._zone_page_cursor.pop(zone_index, None)

    # ------------------------------------------------------------- zone mgmt
    def _exec_zone_mgmt(self, command: Command, cid: int = 0) -> Generator:
        zone = self.zones.zone_at_start(command.slba)
        if zone is None:
            # Out-of-range ZSLBA is an addressing error; an in-range LBA
            # that is not a zone start is a malformed field (QEMU's
            # zns_get_zone_by_slba ordering).
            in_range = self.zones.zone_containing(command.slba) is not None
            yield self.profile.zone_open_ns
            return self._complete(
                command,
                Status.INVALID_FIELD if in_range else Status.LBA_OUT_OF_RANGE,
                cid=cid,
            )
        if zone.index in self._mgmt_busy:
            yield self.profile.zone_open_ns
            return self._complete(command, Status.INVALID_ZONE_STATE_TRANSITION,
                                  cid=cid)
        action = command.action
        if action is ZoneAction.OPEN:
            yield from self._quick_mgmt(self.profile.zone_open_ns, "open", cid)
            return self._complete(command, self.zones.open(zone), cid=cid)
        elif action is ZoneAction.CLOSE:
            yield from self._quick_mgmt(self.profile.zone_close_ns, "close", cid)
            return self._complete(command, self.zones.close(zone), cid=cid)
        elif action is ZoneAction.FINISH:
            return (yield from self._exec_finish(zone, command, cid))
        elif action is ZoneAction.RESET:
            return (yield from self._exec_reset(zone, command, cid))
        else:  # pragma: no cover - enum is exhaustive
            raise ValueError(f"unknown zone action {action}")

    def _quick_mgmt(self, nominal_ns: int, name: str = "mgmt",
                    cid: int = 0) -> Generator:
        queued_at = self.sim.now
        req = self.firmware.request(PRIO_IO)
        yield req
        granted_at = self.sim.now
        yield self._mgmt_jitter.jitter(nominal_ns)
        self.firmware.release(req)
        if self.tracer.enabled:
            if granted_at > queued_at:
                self.tracer.span("queue", "firmware.wait", queued_at,
                                 granted_at, track="firmware", cid=cid)
            self.tracer.span("firmware", f"{name}.service", granted_at,
                             self.sim.now, track="firmware", cid=cid)

    def _exec_finish(self, zone: Zone, command: Command,
                     cid: int = 0) -> Generator:
        # Zone Finish is legal from every writable-lifecycle state (the
        # spec's ZSE/ZSIO/ZSEO/ZSC→ZSF arcs): an EMPTY zone pads its
        # whole writable capacity, and finishing a FULL zone is an
        # idempotent no-op that pays only the management handshake.
        if zone.state is ZoneState.FULL:
            yield from self._quick_mgmt(self.profile.zone_open_ns, "finish", cid)
            status, _ = self.zones.finish(zone)
            return self._complete(command, status, cid=cid)
        if zone.state not in (
            ZoneState.EMPTY, ZoneState.IMPLICIT_OPEN,
            ZoneState.EXPLICIT_OPEN, ZoneState.CLOSED,
        ):
            yield from self._quick_mgmt(self.profile.zone_open_ns, "finish", cid)
            return self._complete(command, Status.INVALID_ZONE_STATE_TRANSITION,
                                  cid=cid)
        remaining_bytes = self.namespace.bytes_of(zone.remaining_lbas)
        work = self._mgmt_jitter.jitter(self.profile.finish_work_ns(remaining_bytes))
        chunk_ns = max(
            1,
            round(
                self.profile.finish_chunk_bytes * 1e9 / self.profile.finish_pad_bandwidth
            ),
        )
        self._mgmt_busy.add(zone.index)
        try:
            yield from self._mgmt_work(work, chunk_ns, "finish", cid)
        finally:
            self._mgmt_busy.discard(zone.index)
        status, _ = self.zones.finish(zone)
        return self._complete(command, status, cid=cid)

    def _exec_reset(self, zone: Zone, command: Command,
                    cid: int = 0) -> Generator:
        if zone.state in (ZoneState.READ_ONLY, ZoneState.OFFLINE):
            yield from self._quick_mgmt(self.profile.zone_open_ns, "reset", cid)
            return self._complete(command, Status.INVALID_ZONE_STATE_TRANSITION,
                                  cid=cid)
        occupied = zone.occupancy_lbas - zone.finished_pad_lbas
        pad = zone.finished_pad_lbas
        work = self._mgmt_jitter.jitter(
            self.profile.reset_work_ns(occupied, pad, self.namespace.block_size)
        )
        self._mgmt_busy.add(zone.index)
        try:
            yield from self._mgmt_work(work, self.profile.reset_chunk_ns,
                                       "reset", cid)
            if self.faults is not None:
                injector = self.faults
                wear = injector.wear.unit(zone.index)
                # A reset erases the zone's stripe: the erase can retry
                # (extra die-held time folded into the reset latency) or
                # exhaust its budget, in which case the firmware retires
                # the zone OFFLINE instead of recycling it. Failure odds
                # follow the zone's erase-count curve (DESIGN.md §17).
                retries, bad = injector.erase_outcome(wear)
                if retries:
                    yield retries * self.profile.nand.erase_ns
                if bad:
                    self.zones.retire(zone, ZoneState.OFFLINE)
                    injector.zones_offlined.inc()
                    self._drop_residual(zone.index)
                    return self._complete(command, Status.SUCCESS, cid=cid)
                injector.note_erase(wear)
                self.zones.reset(zone)
                self._drop_residual(zone.index)
                # Heavily cycled zones retire on erase count alone, even
                # before programs start failing.
                self._apply_wear_retirement(zone, wear)
                return self._complete(command, Status.SUCCESS, cid=cid)
        finally:
            self._mgmt_busy.discard(zone.index)
        self.zones.reset(zone)
        self._drop_residual(zone.index)
        return self._complete(command, Status.SUCCESS, cid=cid)

    def _mgmt_work(self, work_ns: int, chunk_ns: int, name: str = "mgmt",
                   cid: int = 0) -> Generator:
        """Run firmware work at lower priority than I/O mapping updates.

        Holds the firmware engine for the whole operation (management
        operations serialize) and, between work chunks, pays for any
        mapping-update debt that I/O completions generated meanwhile —
        I/O preempts management, never the other way around.

        A chunk boundary before :meth:`Simulator.quiet_until` has nothing
        else before it, so its wake would find no new debt and sleep the
        next chunk: such boundaries are skipped, their clock advances
        replayed to the tick hooks, and the sleep runs to the first
        boundary that is not skipped (DESIGN.md §11).
        """
        sim = self.sim
        queued_at = sim.now
        req = self.firmware.request(PRIO_MGMT)
        yield req
        granted_at = sim.now
        try:
            done_work = 0
            debt_paid = 0
            debt_mark = self._fw_debt_ns
            while done_work < work_ns:
                step = min(chunk_ns, work_ns - done_work)
                new_debt = self._fw_debt_ns - debt_mark
                debt_mark = self._fw_debt_ns
                sleep = step + new_debt
                horizon = sim.quiet_until()
                if horizon is not None:
                    wake = sim.now + sleep
                    # A skipped boundary ends a whole chunk and leaves
                    # work after it, and falls before the horizon.
                    skips = (work_ns - done_work - 1) // chunk_ns
                    if skips and wake + (skips - 1) * chunk_ns >= horizon:
                        skips = max(0, -((wake - horizon) // chunk_ns))
                    if skips:
                        sim.replay_advances(
                            range(wake, wake + skips * chunk_ns, chunk_ns))
                        done_work += skips * chunk_ns
                        step = min(chunk_ns, work_ns - done_work)
                        sleep = wake + (skips - 1) * chunk_ns + step - sim.now
                yield sleep
                done_work += step
                debt_paid += new_debt
        finally:
            self.firmware.release(req)
            if self.tracer.enabled:
                if granted_at > queued_at:
                    self.tracer.span("queue", "firmware.wait", queued_at,
                                     granted_at, track="firmware", cid=cid)
                self.tracer.span("firmware", f"{name}.work", granted_at,
                                 self.sim.now, track="firmware", cid=cid,
                                 io_debt_ns=debt_paid)
