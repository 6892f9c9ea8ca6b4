"""zonefs-like file view of a zoned namespace (paper refs [53], [75]).

Linux *zonefs* exposes each zone as a single append-only file: writing
appends at the file's end, reading is ordinary, truncating to zero
resets the zone, and truncating to the zone capacity finishes it. It is
the thinnest possible filesystem over ZNS — no block mapping, no
journal — and therefore a faithful consumer of exactly the operations
this characterization measures.

This module reproduces those semantics over the simulated device, with
the same synchronous ergonomics as :class:`repro.zns.zbd`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hostif.commands import Command, Completion, Opcode, ZoneAction
from ..hostif.status import StatusError
from ..sim.engine import Event
from ..zns.device import ZnsDevice
from ..zns.spec import ZoneState

__all__ = ["ZoneFile", "ZoneFs"]


@dataclass
class ZoneFile:
    """One zone-backed file (a ``/seq/N`` entry in Linux zonefs)."""

    fs: "ZoneFs"
    zone_index: int

    @property
    def name(self) -> str:
        return f"seq/{self.zone_index}"

    @property
    def size(self) -> int:
        """Current file size in bytes (the zone's write-pointer offset)."""
        zone = self.fs.device.zones.zones[self.zone_index]
        return zone.occupancy_lbas * self.fs._block

    @property
    def max_size(self) -> int:
        return self.fs.device.zones.zones[self.zone_index].cap_lbas * self.fs._block

    # -- file operations --------------------------------------------------
    def append(self, nbytes: int) -> Completion:
        """Append ``nbytes`` at the end of the file (zone append)."""
        return self.fs._sync(self.append_async(nbytes))

    def append_async(self, nbytes: int) -> Event:
        """Async append: returns the completion event, for use *inside*
        an already-running simulation (a tenant workload process)."""
        nlb = self.fs._nlb(nbytes)
        zone = self.fs.device.zones.zones[self.zone_index]
        return self.fs.submit(Command(Opcode.APPEND, slba=zone.zslba, nlb=nlb))

    def pread(self, offset: int, nbytes: int) -> Completion:
        """Read within the written extent of the file."""
        return self.fs._sync(self.pread_async(offset, nbytes))

    def pread_async(self, offset: int, nbytes: int) -> Event:
        """Async read within the written extent (see :meth:`append_async`)."""
        if offset < 0 or offset % self.fs._block:
            raise ValueError(f"offset {offset} must be block-aligned and >= 0")
        if offset + nbytes > self.size:
            raise ValueError(
                f"read [{offset}, {offset + nbytes}) beyond EOF at {self.size}"
            )
        zone = self.fs.device.zones.zones[self.zone_index]
        slba = zone.zslba + offset // self.fs._block
        return self.fs.submit(
            Command(Opcode.READ, slba=slba, nlb=self.fs._nlb(nbytes)))

    def truncate(self, size: int) -> None:
        """zonefs truncation: 0 resets the zone; max_size finishes it."""
        self.fs._sync(self.truncate_async(size))

    def truncate_async(self, size: int) -> Event:
        """Async truncation (see :meth:`append_async`)."""
        zone = self.fs.device.zones.zones[self.zone_index]
        if size == 0:
            return self.fs.submit(Command(Opcode.ZONE_MGMT, slba=zone.zslba,
                                          action=ZoneAction.RESET))
        if size == self.max_size:
            return self.fs.submit(Command(Opcode.ZONE_MGMT, slba=zone.zslba,
                                          action=ZoneAction.FINISH))
        raise ValueError(
            "zonefs only supports truncation to 0 (reset) or to the "
            f"zone capacity {self.max_size} (finish); got {size}"
        )


class ZoneFs:
    """The mount: one append-only file per sequential zone."""

    def __init__(self, device: ZnsDevice, stack=None):
        self.device = device
        self.sim = device.sim
        if stack is None:
            # Every mount pays host-stack overhead, so latency measured
            # through the filesystem path includes submit/complete
            # costs. Anything with ``submit(Command) -> Event`` works — a
            # StorageStack or a Tenant (which also stamps its label).
            from ..stacks.spdk import SpdkStack

            stack = SpdkStack(device)
        self._target = stack
        self._block = device.namespace.block_size
        self._files = [ZoneFile(self, i) for i in range(device.zones.num_zones)]

    def __len__(self) -> int:
        return len(self._files)

    def file(self, zone_index: int) -> ZoneFile:
        if not 0 <= zone_index < len(self._files):
            raise ValueError(f"no file seq/{zone_index}")
        return self._files[zone_index]

    def files(self) -> list[ZoneFile]:
        return list(self._files)

    def statfs(self) -> dict:
        """Aggregate usage, like ``df`` on a zonefs mount."""
        used = sum(f.size for f in self._files)
        total = sum(f.max_size for f in self._files)
        open_files = sum(
            1 for z in self.device.zones.zones
            if z.state in (ZoneState.IMPLICIT_OPEN, ZoneState.EXPLICIT_OPEN)
        )
        return {"files": len(self._files), "used": used, "total": total,
                "open_files": open_files}

    # -- internals ----------------------------------------------------------
    def _nlb(self, nbytes: int) -> int:
        if nbytes <= 0 or nbytes % self._block:
            raise ValueError(
                f"length {nbytes} must be a positive multiple of {self._block}"
            )
        return nbytes // self._block

    def submit(self, command: Command) -> Event:
        """Issue a command through the mount's host session."""
        return self._target.submit(command)

    def _sync(self, event: Event) -> Completion:
        completion = self.sim.run(until=event)
        if not completion.ok:
            raise StatusError(completion.status,
                              completion.command.opcode.value)
        return completion
