"""NVMe command and completion structures.

Commands carry LBA-denominated addresses (``slba``/``nlb``); the zone
management commands address whole zones via the zone's starting LBA.
Completions carry the status, the command, timing, and — for ``append`` —
the device-assigned LBA (the defining feature of the append operation:
the host names the zone, the device names the address).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .status import Status

__all__ = [
    "Opcode",
    "ZoneAction",
    "Command",
    "Completion",
]


class Opcode(Enum):
    READ = "read"
    WRITE = "write"
    APPEND = "append"
    ZONE_MGMT = "zone_mgmt"
    #: NVMe Dataset Management / deallocate ("trim") — supported by the
    #: conventional device; ZNS reclaims whole zones via reset instead.
    TRIM = "trim"


class ZoneAction(Enum):
    OPEN = "open"
    CLOSE = "close"
    FINISH = "finish"
    RESET = "reset"


@dataclass(slots=True)
class Command:
    """A single NVMe(-ZNS) command.

    * READ / WRITE: ``slba`` + ``nlb``.
    * APPEND: ``slba`` is the zone start LBA (ZSLBA) + ``nlb``.
    * ZONE_MGMT: ``slba`` is the ZSLBA, ``action`` selects the operation.
    """

    opcode: Opcode
    slba: int = 0
    nlb: int = 0
    action: Optional[ZoneAction] = None
    submitted_at: int = -1
    tag: object = None  # opaque host cookie (job id, request id, ...)
    #: Issuing tenant's name, when the command was submitted from inside
    #: a tenant session (:mod:`repro.tenancy`). ``None`` for single-tenant
    #: hosts — the label is carried, never interpreted, by the device, so
    #: it cannot perturb simulation; tracers and SLO reports read it to
    #: attribute spans and failures to the offending tenant.
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        if self.slba < 0:
            raise ValueError(f"slba must be >= 0, got {self.slba}")
        if self.opcode is Opcode.ZONE_MGMT:
            if self.action is None:
                raise ValueError("zone management command requires an action")
            if self.nlb != 0:
                raise ValueError("zone management command takes no nlb")
        else:
            if self.action is not None:
                raise ValueError(f"{self.opcode.value} command takes no zone action")
            if self.nlb <= 0:
                raise ValueError(f"{self.opcode.value} command requires nlb >= 1")


@dataclass(slots=True)
class Completion:
    """The result of a command, produced by the device."""

    command: Command
    status: Status
    completed_at: int
    assigned_lba: Optional[int] = None  # append only
    merged_from: int = 1  # host-scheduler merge accounting

    @property
    def ok(self) -> bool:
        return self.status.ok

    @property
    def latency_ns(self) -> int:
        """Submission-to-completion latency, as the paper measures it."""
        if self.command.submitted_at < 0:
            raise ValueError("command was never stamped with a submission time")
        return self.completed_at - self.command.submitted_at
