"""The Linux io_uring block-layer stack (with optional mq-deadline).

Calibration (Observation #2): kernel writes without a scheduler complete
in 12.62 µs vs 10.79 µs of device time → ~1.83 µs of block-layer + ring
overhead. The mq-deadline scheduler adds 1.85 µs more (paper: "1.85 µs
out of 14.47 µs, or 12.81 %") and enables per-zone write queueing with
merging.

Like fio through the kernel, this stack cannot issue ``append`` or
zone-management commands — use SPDK for those (paper §III-A).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from ..hostif.commands import Command, Opcode
from ..sim.engine import Event
from .base import StorageStack, UnsupportedOperation
from .scheduler import MqDeadlineScheduler

if TYPE_CHECKING:
    from ..device.core import DeviceCore

__all__ = ["IoUringStack"]


class IoUringStack(StorageStack):
    name = "io_uring"

    def __init__(self, device: DeviceCore, scheduler: Optional[str] = "none",
                 max_merge_bytes: Optional[int] = None):
        super().__init__(device, submit_overhead_ns=1_230, complete_overhead_ns=600)
        if scheduler in (None, "none"):
            self.scheduler = None
        elif scheduler == "mq-deadline":
            kwargs = {} if max_merge_bytes is None else {"max_merge_bytes": max_merge_bytes}
            self.scheduler = MqDeadlineScheduler(device, self.stats, **kwargs)
        else:
            raise ValueError(f"unknown scheduler {scheduler!r} (none | mq-deadline)")

    def issue(self, command: Command) -> Generator:
        if command.opcode in (Opcode.APPEND, Opcode.ZONE_MGMT):
            raise UnsupportedOperation(
                f"fio/io_uring cannot issue {command.opcode.value} commands; "
                "use the SPDK stack (paper §III-A)"
            )
        # Only writes go through the scheduler; reads pass straight through.
        if self.scheduler is None or command.opcode is not Opcode.WRITE:
            return super().issue(command)
        command.submitted_at = self.sim.now
        self.stats.requests += 1
        return self._issue_scheduled(command)

    def _issue_scheduled(self, command: Command):
        yield self.submit_overhead_ns + self.scheduler.overhead_ns
        inner = Event(self.sim)
        self.scheduler.enqueue(command, inner)
        completion = yield inner
        yield self.complete_overhead_ns
        completion.completed_at = self.sim.now
        return completion
