"""Host storage-stack abstraction.

A stack sits between workload threads and a device, adding the host-side
costs and policies the paper compares in §III-A:

* **SPDK** — bare-bones polling stack, lowest overhead, no scheduler,
  append support, one in-flight write per zone.
* **io_uring (Linux block layer)** — higher per-request overhead; with
  the **mq-deadline** scheduler it buffers, merges, and serializes writes
  per zone (enabling intra-zone write QD > 1); no append support.

Latency accounting: the stack stamps ``submitted_at`` when the request
enters the stack (what fio reports), so queueing and merging delays are
part of the measured latency, exactly as in the paper's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..hostif.commands import Command
from ..sim.engine import Event, Simulator

if TYPE_CHECKING:  # import cycle: the device layer pulls in zns → stacks
    from ..device.core import DeviceCore

__all__ = ["StackStats", "StorageStack", "UnsupportedOperation"]


class UnsupportedOperation(RuntimeError):
    """The stack cannot issue this command (e.g. append via io_uring)."""


@dataclass
class StackStats:
    """Per-stack request accounting (exposes fio's merge percentage)."""

    requests: int = 0
    dispatched: int = 0
    merged_away: int = 0  # requests folded into another dispatched command

    @property
    def merge_fraction(self) -> float:
        """Fraction of requests merged into a larger command (fio's
        "percentage merged"; the paper reports 92.35 % at QD16)."""
        if self.requests == 0:
            return 0.0
        return self.merged_away / self.requests


class StorageStack:
    """Base class: overhead bookkeeping + passthrough submission."""

    name = "base"

    def __init__(self, device: DeviceCore, submit_overhead_ns: int,
                 complete_overhead_ns: int):
        self.device = device
        self.sim: Simulator = device.sim
        self.submit_overhead_ns = submit_overhead_ns
        self.complete_overhead_ns = complete_overhead_ns
        self.stats = StackStats()
        # Share the device's tracer so host-side spans land in the same
        # timeline as the device's command spans.
        self.tracer = device.tracer

    # -- protocol -----------------------------------------------------------
    def submit(self, command: Command) -> Event:
        """Issue a command through the stack; fires with its Completion."""
        command.submitted_at = self.sim.now
        self.stats.requests += 1
        # The issue process doubles as the completion event (its return
        # value is the Completion) — no separate done event per command.
        return self.sim.process(self._issue(command))

    def _issue(self, command: Command):
        traced = self.tracer.enabled
        entered = self.sim.now if traced else 0
        yield self.sim.timeout(self.submit_overhead_ns)
        self.stats.dispatched += 1
        target = self.device.submit(command)
        cid = 0
        if traced:
            # The device assigns the command's trace id in submit(); read
            # it back immediately (single-threaded, deterministic) so
            # host-side spans correlate with the device's spans.
            cid = self.device.last_cid
            self.tracer.span("host", f"{self.name}.submit", entered,
                             self.sim.now, track="host", cid=cid,
                             opcode=command.opcode.value)
        completion = yield target
        complete_started = self.sim.now if traced else 0
        yield self.sim.timeout(self.complete_overhead_ns)
        completion.completed_at = self.sim.now
        if traced:
            self.tracer.span("host", f"{self.name}.complete", complete_started,
                             self.sim.now, track="host", cid=cid)
        return completion
