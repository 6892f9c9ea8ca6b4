"""Access-pattern generators: where the next request goes.

Generators produce :class:`repro.hostif.Command` instances for a runner
slot. They are deliberately device-aware (they consult zone capacity and
write pointers) because that is what fio's zbd mode does: sequential-zone
workloads track the write pointer, wrap to the next zone at capacity, and
reset zones before reuse.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..hostif.commands import Command, Opcode
from ..zns.spec import ZoneState

__all__ = ["BACKOFF", "Backoff", "ZoneWriteCursor", "ZoneAppendCursor",
           "RandomReadPattern", "RangePattern"]


def _dead(zone) -> bool:
    """True when fault injection retired the zone from the write path.

    In fault-free runs no zone ever reaches these states, so the check
    never alters cursor behaviour (byte-identity with the golden runs).
    """
    return zone.state in (ZoneState.READ_ONLY, ZoneState.OFFLINE)


class Backoff:
    """Sentinel target: no command can be formed *right now*.

    Returned (in the command position) when every candidate zone is
    blocked by in-flight work — e.g. all zones full but with outstanding
    append reservations that will be released by pending completions.
    The runner must wait a short simulated delay and ask again rather
    than retire the slot; at high iodepth, slots hitting a zone boundary
    would otherwise die and silently shrink the measured concurrency.
    """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<BACKOFF>"


#: The shared back-off sentinel instance.
BACKOFF = Backoff()


class ZoneWriteCursor:
    """Sequential write targeting across a set of zones.

    Hands out write-pointer-ordered (slba, nlb) slices, moving to the next
    zone when one fills. When every zone has been filled and
    ``reset_when_full`` is set, the cursor reports the zone that must be
    reset (host-managed GC); the runner issues the reset and retries.
    """

    def __init__(self, device, zones: Sequence[int], nlb: int,
                 reset_when_full: bool = True):
        if not zones:
            raise ValueError("need at least one target zone")
        if nlb <= 0:
            raise ValueError("nlb must be positive")
        self.device = device
        self.zone_ids = list(zones)
        self.nlb = nlb
        self.reset_when_full = reset_when_full
        self._zone_pos = 0
        self._next_lba: Optional[int] = None

    def _zone(self):
        return self.device.zones.zones[self.zone_ids[self._zone_pos]]

    def next_target(self) -> tuple[Optional[Command], Optional[int]]:
        """Returns (command, zone_to_reset). Exactly one is non-None,
        unless the cursor is exhausted (both None)."""
        for _ in range(2 * len(self.zone_ids) + 2):
            zone = self._zone()
            if _dead(zone):
                # Retired zone (fault injection): never write or reset it.
                self._zone_pos = (self._zone_pos + 1) % len(self.zone_ids)
                self._next_lba = None
                continue
            if self._next_lba is None:
                self._next_lba = zone.wp
            if self._next_lba + self.nlb <= zone.writable_end:
                slba = self._next_lba
                self._next_lba += self.nlb
                return Command(Opcode.WRITE, slba, self.nlb), None
            # Zone exhausted: advance (resetting if allowed and needed).
            self._zone_pos = (self._zone_pos + 1) % len(self.zone_ids)
            self._next_lba = None
            nxt = self._zone()
            if _dead(nxt):
                continue
            if nxt.wp + self.nlb > nxt.writable_end:
                if self.reset_when_full:
                    return None, nxt.index
                continue
        return None, None


class ZoneAppendCursor:
    """Append targeting across a set of zones (device assigns addresses)."""

    def __init__(self, device, zones: Sequence[int], nlb: int,
                 reset_when_full: bool = True,
                 rng: Optional[np.random.Generator] = None):
        if not zones:
            raise ValueError("need at least one target zone")
        self.device = device
        self.zone_ids = list(zones)
        self.nlb = nlb
        self.reset_when_full = reset_when_full
        self._rng = rng
        self._zone_pos = 0
        #: Reserved-but-not-yet-completed LBAs per zone, so concurrent
        #: appends at high QD stop before overshooting the capacity.
        self._reserved: dict[int, int] = {z: 0 for z in self.zone_ids}

    def _pick_zone_pos(self) -> int:
        if self._rng is None:
            return self._zone_pos
        return int(self._rng.integers(0, len(self.zone_ids)))

    def next_target(self) -> tuple[Optional[Command], Optional[int]]:
        # NB: the iteration bound must stay exactly as in fault-free runs —
        # random mode draws from the RNG every iteration, so a wider bound
        # would shift the draw stream and break golden-run byte-identity.
        # Dead-zone skips burn iterations, but the runner re-polls after
        # BACKOFF, so progress only needs one live zone to be reachable.
        for _ in range(len(self.zone_ids) + 1):
            pos = self._pick_zone_pos()
            zone_id = self.zone_ids[pos]
            zone = self.device.zones.zones[zone_id]
            if _dead(zone):
                # Retired zone (fault injection): skip; appends and resets
                # against READ_ONLY/OFFLINE zones can never succeed.
                self._zone_pos = (self._zone_pos + 1) % len(self.zone_ids)
                continue
            projected = zone.wp + self._reserved[zone_id] + self.nlb
            if projected <= zone.writable_end:
                self._reserved[zone_id] += self.nlb
                return Command(Opcode.APPEND, zone.zslba, self.nlb), None
            if self.reset_when_full and self._reserved[zone_id] == 0:
                return None, zone_id
            self._zone_pos = (self._zone_pos + 1) % len(self.zone_ids)
        if any(count > 0 for count in self._reserved.values()):
            # Every zone is full *including* reservations held by appends
            # still in flight. Those reservations will be released (and,
            # with reset_when_full, the zones recycled), so this is a
            # transient condition — signal back-off, not exhaustion.
            return BACKOFF, None
        return None, None

    def completed(self, command: Command) -> None:
        """Release the reservation once an append finishes."""
        zones = self.device.zones
        zone = zones.zone_containing(command.slba)
        if zone is not None and zone.index in self._reserved:
            self._reserved[zone.index] = max(0, self._reserved[zone.index] - command.nlb)

    def reset_done(self, zone_id: int) -> None:
        self._reserved[zone_id] = 0


class RandomReadPattern:
    """Uniform random reads over the written extent of a set of zones."""

    def __init__(self, device, zones: Sequence[int], nlb: int,
                 rng: np.random.Generator):
        if not zones:
            raise ValueError("need at least one target zone")
        self.device = device
        self.zone_ids = list(zones)
        self.nlb = nlb
        self._rng = rng

    def next_target(self) -> tuple[Optional[Command], Optional[int]]:
        zone_id = self.zone_ids[int(self._rng.integers(0, len(self.zone_ids)))]
        zone = self.device.zones.zones[zone_id]
        written = zone.occupancy_lbas
        if written < self.nlb:
            # Nothing to read yet in this zone; read from the start anyway
            # (deallocated reads are legal and cheap on ZNS).
            return Command(Opcode.READ, zone.zslba, self.nlb), None
        slba = zone.zslba + int(self._rng.integers(0, written - self.nlb + 1))
        return Command(Opcode.READ, slba, self.nlb), None


class RangePattern:
    """Sequential or random I/O over a flat LBA range (non-zoned)."""

    def __init__(self, opcode: Opcode, address_range: tuple[int, int], nlb: int,
                 random: bool, rng: np.random.Generator):
        start, end = address_range
        if not 0 <= start < end:
            raise ValueError(f"bad address range {address_range}")
        if end - start < nlb:
            raise ValueError("address range smaller than one request")
        self.opcode = opcode
        self.start, self.end = start, end
        self.nlb = nlb
        self.random = random
        self._rng = rng
        self._cursor = start

    def next_target(self) -> tuple[Optional[Command], Optional[int]]:
        if self.random:
            slots = (self.end - self.start) // self.nlb
            slba = self.start + int(self._rng.integers(0, slots)) * self.nlb
        else:
            if self._cursor + self.nlb > self.end:
                self._cursor = self.start
            slba = self._cursor
            self._cursor += self.nlb
        return Command(self.opcode, slba, self.nlb), None
