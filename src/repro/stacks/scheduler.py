"""The mq-deadline I/O-scheduler model for zoned block devices.

What matters for the paper's observations (and what we model):

* **per-zone write serialization** — at most one (merged) write command
  in flight per zone, which is what lets applications issue many
  outstanding writes to one zone through the kernel at all;
* **contiguous-request merging** — queued writes whose LBAs abut are
  folded into one larger command before dispatch. At QD16 the paper
  measures 92.35 % of 4 KiB sequential writes merged, which is how
  intra-zone kernel writes reach 293 KIOPS, far above the device's
  ~186 K per-command cap (Observation #7).

Reads and zone-management commands pass straight through.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from ..hostif.commands import Command, Completion, Opcode
from ..sim.engine import Event, Simulator
from .base import StackStats

if TYPE_CHECKING:
    from ..device.core import DeviceCore

__all__ = ["MqDeadlineScheduler"]

#: The block layer's default cap on a merged request (max_sectors_kb-ish).
DEFAULT_MAX_MERGE_BYTES = 512 * 1024


class MqDeadlineScheduler:
    """Per-zone write queues with contiguous merging and 1-dispatch rule."""

    name = "mq-deadline"

    #: Added host latency per request (paper: "1.85 µs out of 14.47 µs").
    overhead_ns = 1_850

    def __init__(self, device: DeviceCore, stats: StackStats,
                 max_merge_bytes: int = DEFAULT_MAX_MERGE_BYTES):
        if max_merge_bytes <= 0:
            raise ValueError("max_merge_bytes must be positive")
        self.device = device
        self.sim: Simulator = device.sim
        self.stats = stats
        self.max_merge_bytes = max_merge_bytes
        self.tracer = device.tracer
        self._queues: dict[Optional[int], deque[tuple[Command, Event]]] = {}
        self._dispatching: set[Optional[int]] = set()

    # -- protocol ----------------------------------------------------------
    def enqueue(self, command: Command, done: Event) -> None:
        key = self._zone_key(command)
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = deque()
        queue.append((command, done))
        if key not in self._dispatching:
            self._dispatching.add(key)
            self.sim.process(self._dispatch(key), name=f"mqd-zone-{key}")

    # -- internals ----------------------------------------------------------
    def _zone_key(self, command: Command) -> Optional[int]:
        zones = self.device.zones
        if zones is None:
            return None
        zone = zones.zone_containing(command.slba)
        return None if zone is None else zone.index

    def _block_size(self) -> int:
        return self.device.namespace.block_size

    def _dispatch(self, key: Optional[int]):
        queue = self._queues[key]
        block_size = self._block_size()
        max_merge_lbas = self.max_merge_bytes // block_size
        while queue:
            batch = [queue.popleft()]
            head_cmd = batch[0][0]
            next_lba = head_cmd.slba + head_cmd.nlb
            total_nlb = head_cmd.nlb
            while queue and queue[0][0].slba == next_lba and (
                total_nlb + queue[0][0].nlb <= max_merge_lbas
            ):
                cmd, done = queue.popleft()
                batch.append((cmd, done))
                next_lba += cmd.nlb
                total_nlb += cmd.nlb
            merged = Command(Opcode.WRITE, slba=head_cmd.slba, nlb=total_nlb)
            self.stats.dispatched += 1
            self.stats.merged_away += len(batch) - 1
            if self.tracer.enabled:
                self.tracer.instant("host", "mqd.dispatch", self.sim.now,
                                    track="host", zone=key,
                                    batch=len(batch), nlb=total_nlb)
            completion: Completion = yield from self.device.issue(merged)
            status, now, count = completion.status, self.sim.now, len(batch)
            for cmd, done in batch:
                done.succeed(Completion(cmd, status, now, None, count))
        self._dispatching.discard(key)
