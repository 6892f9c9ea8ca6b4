"""The zone manager: state transitions with open/active-limit enforcement.

All transition legality and resource-limit logic lives here, separate
from timing, so the state machine is testable (including with
property-based random operation sequences) without running a simulator.

Semantics follow the NVMe ZNS spec as the paper describes it:

* a write/append to an EMPTY or CLOSED zone *implicitly opens* it,
* open zones count against ``max_open``; open + closed count against
  ``max_active``,
* ``close`` on an open zone with an untouched write pointer returns it to
  EMPTY (nothing was written, so nothing stays active),
* ``finish`` moves any writable-lifecycle zone to FULL, recording how
  much capacity had to be padded (the pad size drives finish latency and
  the later reset cost, §III-E). Per the ZNS spec's Zone Finish
  semantics this includes EMPTY→FULL (the whole writable capacity is
  padded) and a FULL zone, where it is an idempotent no-op success —
  the same idempotency ``open`` and ``close`` already have,
* ``reset`` returns any writable-lifecycle zone to EMPTY (a reset of an
  already-EMPTY zone is a legal cheap no-op; Fig. 5a includes 0 %
  occupancy),
* opening a zone (implicitly by a write/append, or explicitly) while
  ``max_open`` zones are open *implicitly closes* the lowest-indexed
  implicitly-opened zone to free the slot (the controller-managed
  transition ZSIO→ZSC from the spec's resource-management rules, as
  Linux null_blk models it); only when every open slot is explicitly
  held does the command fail with TOO_MANY_OPEN_ZONES.
"""

from __future__ import annotations

from typing import Callable

from ..hostif.status import Status
from ..sim.engine import SimulationError
from .spec import ACTIVE_STATES, OPEN_STATES, ZoneState
from .zone import Zone

__all__ = ["ZoneManager"]


class ZoneManager:
    """Owns all zones of a namespace and their state transitions."""

    def __init__(self, num_zones: int, size_lbas: int, cap_lbas: int,
                 max_open: int, max_active: int):
        if num_zones <= 0:
            raise ValueError(f"num_zones must be positive, got {num_zones}")
        if max_open <= 0 or max_active <= 0:
            raise ValueError("zone limits must be positive")
        if max_open > max_active:
            raise ValueError(
                f"max_open ({max_open}) cannot exceed max_active ({max_active})"
            )
        self.zones = [
            Zone(i, i * size_lbas, size_lbas, cap_lbas) for i in range(num_zones)
        ]
        self.size_lbas = size_lbas
        self.cap_lbas = cap_lbas
        self.max_open = max_open
        self.max_active = max_active
        self._open_count = 0
        self._active_count = 0
        #: Zones per state, kept by :meth:`_enter` so the telemetry
        #: census is a read, not a walk over every zone.
        self._census = dict.fromkeys(ZoneState, 0)
        self._census[ZoneState.EMPTY] = num_zones
        #: Optional observer called as ``on_transition(zone, old, new)``
        #: after every state change. Pure observation: the device wires
        #: this to its tracer/metrics; the state machine itself stays
        #: simulator-free and the hook must not mutate zone state.
        self.on_transition: Callable[[Zone, ZoneState, ZoneState], None] | None = None

    # -- introspection -------------------------------------------------------
    @property
    def num_zones(self) -> int:
        return len(self.zones)

    @property
    def open_count(self) -> int:
        return self._open_count

    @property
    def active_count(self) -> int:
        return self._active_count

    @property
    def census(self) -> dict[ZoneState, int]:
        """Live zone count per state: every state, in declaration order
        (read-only)."""
        return self._census

    def zone_containing(self, lba: int) -> Zone | None:
        """The zone owning an LBA, or None when out of range."""
        index = lba // self.size_lbas
        if 0 <= index < len(self.zones):
            return self.zones[index]
        return None

    def zone_at_start(self, zslba: int) -> Zone | None:
        """The zone whose start LBA is exactly ``zslba`` (for zone cmds)."""
        zone = self.zone_containing(zslba)
        if zone is not None and zone.zslba == zslba:
            return zone
        return None

    def state_snapshot(self) -> list[tuple[str, int, int]]:
        """Portable image of the mutable per-zone state.

        One ``(state, wp, finished_pad_lbas)`` tuple per zone, in index
        order. Geometry (zslba/size/cap) is immutable and not captured.
        """
        return [(z.state.value, z.wp, z.finished_pad_lbas) for z in self.zones]

    def restore_state(self, snapshot: list[tuple[str, int, int]]) -> None:
        """Reinstate a :meth:`state_snapshot` image.

        A fixture, like :meth:`force_state`: states are assigned
        directly (``on_transition`` observers do not fire — restoring is
        not a simulated transition) and the open/active counters are
        recomputed from the restored states, as is the census.
        """
        if len(snapshot) != len(self.zones):
            raise ValueError(
                f"snapshot covers {len(snapshot)} zones, "
                f"manager has {len(self.zones)}"
            )
        for zone, (state, wp, pad) in zip(self.zones, snapshot):
            zone.state = ZoneState(state)
            zone.wp = wp
            zone.finished_pad_lbas = pad
        self._census = self._recount()
        self._open_count = sum(self._census[s] for s in OPEN_STATES)
        self._active_count = sum(self._census[s] for s in ACTIVE_STATES)
        self.check_invariants()

    def _recount(self) -> dict[ZoneState, int]:
        census = dict.fromkeys(ZoneState, 0)
        for zone in self.zones:
            census[zone.state] += 1
        return census

    def check_invariants(self) -> None:
        """Raise :class:`SimulationError` if a counter/limit invariant fails.

        Property tests call it after every step; :meth:`restore_state`
        calls it on every restore. Explicit raises, not ``assert``, so
        ``python -O`` keeps the check.
        """
        census = self._recount()
        if census != self._census:
            raise SimulationError("census drift")
        if sum(census[s] for s in OPEN_STATES) != self._open_count:
            raise SimulationError("open-count drift")
        if sum(census[s] for s in ACTIVE_STATES) != self._active_count:
            raise SimulationError("active-count drift")
        if self._open_count > self.max_open:
            raise SimulationError("max_open violated")
        if self._active_count > self.max_active:
            raise SimulationError("max_active violated")
        for zone in self.zones:
            if not zone.zslba <= zone.wp <= zone.writable_end:
                raise SimulationError("wp out of range")
            if zone.state is ZoneState.EMPTY and zone.wp != zone.zslba:
                raise SimulationError("EMPTY zone with advanced wp")
            if (zone.state is ZoneState.FULL and zone.finished_pad_lbas == 0
                    and zone.wp != zone.writable_end):
                raise SimulationError("unpadded FULL zone not at cap")

    # -- state bookkeeping ---------------------------------------------------
    def _enter(self, zone: Zone, new_state: ZoneState) -> None:
        old = zone.state
        self._open_count += (new_state in OPEN_STATES) - (old in OPEN_STATES)
        self._active_count += (new_state in ACTIVE_STATES) - (old in ACTIVE_STATES)
        census = self._census
        census[old] -= 1
        census[new_state] += 1
        zone.state = new_state
        if self.on_transition is not None:
            self.on_transition(zone, old, new_state)

    # -- I/O admission ---------------------------------------------------------
    def admit_write(self, zone: Zone, slba: int, nlb: int) -> tuple[Status, bool]:
        """Validate a write and apply implicit transitions.

        Returns (status, implicitly_opened). On success the write pointer
        is advanced and the zone may become FULL.
        """
        state = zone.state
        if (state not in (ZoneState.FULL, ZoneState.READ_ONLY,
                          ZoneState.OFFLINE)
                and slba != zone.wp):
            # Checked before admission (QEMU's zns_check_zone_write
            # order): a misplaced write must not open the zone or evict
            # an implicit-open victim.
            return Status.ZONE_INVALID_WRITE, False
        status, opened = self._admit_common(zone, nlb)
        if not status.ok:
            return status, False
        self._advance(zone, nlb)
        return Status.SUCCESS, opened

    def admit_append(self, zone: Zone, zslba: int, nlb: int) -> tuple[Status, bool, int]:
        """Validate an append; returns (status, implicitly_opened, lba).

        The device assigns the target LBA (the current write pointer) —
        this is the defining semantics of the append operation.
        """
        if zslba != zone.zslba:
            return Status.INVALID_FIELD, False, -1
        status, opened = self._admit_common(zone, nlb)
        if not status.ok:
            return status, False, -1
        assigned = zone.wp
        self._advance(zone, nlb)
        return Status.SUCCESS, opened, assigned

    def _admit_common(self, zone: Zone, nlb: int) -> tuple[Status, bool]:
        state = zone.state
        if state is ZoneState.FULL:
            return Status.ZONE_IS_FULL, False
        if state is ZoneState.READ_ONLY:
            return Status.ZONE_IS_READ_ONLY, False
        if state is ZoneState.OFFLINE:
            return Status.ZONE_IS_OFFLINE, False
        if zone.wp + nlb > zone.writable_end:
            return Status.ZONE_BOUNDARY_ERROR, False
        opened = False
        if state in (ZoneState.EMPTY, ZoneState.CLOSED):
            status = self._can_open(zone)
            if not status.ok:
                return status, False
            self._enter(zone, ZoneState.IMPLICIT_OPEN)
            opened = True
        return Status.SUCCESS, opened

    def _advance(self, zone: Zone, nlb: int) -> None:
        zone.wp += nlb
        if zone.wp == zone.writable_end:
            self._enter(zone, ZoneState.FULL)

    def _can_open(self, zone: Zone) -> Status:
        needs_active = zone.state is ZoneState.EMPTY
        if needs_active and self._active_count >= self.max_active:
            return Status.TOO_MANY_ACTIVE_ZONES
        if self._open_count >= self.max_open and not self._implicitly_close_one():
            return Status.TOO_MANY_OPEN_ZONES
        return Status.SUCCESS

    def _implicitly_close_one(self) -> bool:
        """Free an open slot by closing an implicitly-opened zone.

        The spec's open-resource management rule: when a zone must be
        opened while ``max_open`` zones are open, the controller may
        transition an *implicitly* opened zone to CLOSED and proceed.
        The victim must be deterministic for reproducibility — like
        Linux null_blk we take the lowest zone index and apply the rule
        to explicit opens as well as write-triggered ones. A victim
        with an untouched write pointer returns to EMPTY (regular close
        semantics — nothing was written, nothing stays active).
        Explicitly-opened zones are never evicted: if every slot is
        held explicitly the caller gets TOO_MANY_OPEN_ZONES.
        """
        for zone in self.zones:
            if zone.state is ZoneState.IMPLICIT_OPEN:
                self._enter(zone, ZoneState.EMPTY if zone.wp == zone.zslba
                            else ZoneState.CLOSED)
                return True
        return False

    def force_state(self, zone: Zone, state: ZoneState) -> None:
        """Failure injection: push a zone into READ_ONLY or OFFLINE.

        Models media wear-out/failure (paper §II-A: limited P/E endurance
        and read disturbs cause zones to degrade). OFFLINE zones lose
        their data (write pointer becomes meaningless); READ_ONLY zones
        keep it. Counter accounting stays consistent.
        """
        if state not in (ZoneState.READ_ONLY, ZoneState.OFFLINE):
            raise ValueError(f"force_state only injects failures, not {state}")
        self._enter(zone, state)
        if state is ZoneState.OFFLINE:
            zone.wp = zone.zslba
            zone.finished_pad_lbas = 0

    # -- fault/recovery arcs -----------------------------------------------------
    def retire(self, zone: Zone, state: ZoneState) -> None:
        """Firmware wear retirement arc (DESIGN.md §12).

        Past the fault plan's program-failure threshold the firmware
        takes the zone out of the writable lifecycle: ``READ_ONLY``
        still serves reads, ``OFFLINE`` rejects everything (including
        reset) and loses its data. Same mechanics as the
        :meth:`force_state` fixture, but this is the *modeled* arc —
        ``on_transition`` observers see it like any other transition.
        """
        self.force_state(zone, state)

    def power_loss_rollback(self, zone: Zone, nlb: int) -> bool:
        """Power-loss recovery arc: rewind ``nlb`` unpersisted LBAs.

        On boot after a power cut, the firmware discards write-pointer
        advancement whose data never reached the media (the dropped
        write-buffer tail). A zone rewound to its start returns to
        EMPTY; a FULL zone whose tail was lost reopens as CLOSED — or,
        if the active-zone limit is already saturated, is torn down to
        EMPTY entirely (the firmware cannot exceed its own limits).
        Returns True when the zone was actually rolled back.
        """
        if nlb <= 0:
            return False
        if zone.state in (ZoneState.READ_ONLY, ZoneState.OFFLINE):
            return False
        if zone.finished_pad_lbas:
            # Finish padding is metadata, not buffered data; rewinding
            # through it is not modeled.
            return False
        old_state = zone.state
        zone.wp = max(zone.zslba, zone.wp - nlb)
        if zone.wp == zone.zslba:
            if old_state is not ZoneState.EMPTY:
                self._enter(zone, ZoneState.EMPTY)
        elif old_state is ZoneState.FULL:
            if self._active_count < self.max_active:
                self._enter(zone, ZoneState.CLOSED)
            else:
                zone.wp = zone.zslba
                self._enter(zone, ZoneState.EMPTY)
        # Open/closed zones keep their state with the rewound pointer.
        return True

    # -- explicit management ----------------------------------------------------
    def open(self, zone: Zone) -> Status:
        state = zone.state
        if state is ZoneState.EXPLICIT_OPEN:
            return Status.SUCCESS  # idempotent
        if state in (ZoneState.EMPTY, ZoneState.CLOSED, ZoneState.IMPLICIT_OPEN):
            if state is not ZoneState.IMPLICIT_OPEN:
                status = self._can_open(zone)
                if not status.ok:
                    return status
            self._enter(zone, ZoneState.EXPLICIT_OPEN)
            return Status.SUCCESS
        return Status.INVALID_ZONE_STATE_TRANSITION

    def close(self, zone: Zone) -> Status:
        state = zone.state
        if state is ZoneState.CLOSED:
            return Status.SUCCESS  # idempotent
        if state in (ZoneState.IMPLICIT_OPEN, ZoneState.EXPLICIT_OPEN):
            if zone.wp == zone.zslba:
                self._enter(zone, ZoneState.EMPTY)
            else:
                self._enter(zone, ZoneState.CLOSED)
            return Status.SUCCESS
        return Status.INVALID_ZONE_STATE_TRANSITION

    def finish(self, zone: Zone) -> tuple[Status, int]:
        """Finish a zone; returns (status, padded_lbas).

        Legal from every writable-lifecycle state: EMPTY pads the whole
        writable capacity, open/closed zones pad what remains, and a
        FULL zone is an idempotent no-op success (pad 0, the recorded
        pad untouched) — Zone Finish in the ZSF state completes
        successfully per the spec, like ``open``/``close`` idempotency.
        """
        state = zone.state
        if state is ZoneState.FULL:
            return Status.SUCCESS, 0
        if state in (ZoneState.EMPTY, ZoneState.IMPLICIT_OPEN,
                     ZoneState.EXPLICIT_OPEN, ZoneState.CLOSED):
            pad = zone.remaining_lbas
            zone.finished_pad_lbas = pad
            zone.wp = zone.writable_end
            self._enter(zone, ZoneState.FULL)
            return Status.SUCCESS, pad
        return Status.INVALID_ZONE_STATE_TRANSITION, 0

    def reset(self, zone: Zone) -> tuple[Status, int, int]:
        """Reset a zone; returns (status, occupied_lbas, padded_lbas).

        The returned occupancy/pad sizes existed *before* the reset and
        drive the latency model (reset cost grows with occupancy,
        Observation #10).
        """
        state = zone.state
        if state in (ZoneState.READ_ONLY, ZoneState.OFFLINE):
            return Status.INVALID_ZONE_STATE_TRANSITION, 0, 0
        occupied = zone.occupancy_lbas - zone.finished_pad_lbas
        pad = zone.finished_pad_lbas
        zone.wp = zone.zslba
        zone.finished_pad_lbas = 0
        self._enter(zone, ZoneState.EMPTY)
        return Status.SUCCESS, occupied, pad
