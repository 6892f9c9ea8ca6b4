"""Thread-pool async stack: completion callbacks over bounded workers.

Modeled on xNVMe's ``posix_async_thrpool`` backend: the caller enqueues
a command into a FIFO work queue and returns immediately; one of a
bounded set of worker threads dequeues it, performs the I/O through the
synchronous passthrough path, and invokes the completion callback
before picking up its next piece of work.

The cost structure sits between the paper's two measured stacks:

* cheaper than io_uring — no syscall or kernel block-layer transit,
  just a userspace queue hand-off and a thread wake-up;
* dearer than SPDK — the submitting thread never touches the device
  itself, so every command pays a cross-thread hop on both the submit
  and the completion side that SPDK's inline polling loop avoids.

Calibrated at 1.10 µs of host overhead per command (enqueue 310 ns +
worker dispatch 430 ns + completion callback 360 ns), so a 4 KiB QD1
write lands at 11.89 µs: between SPDK's 11.36 µs and io_uring's
12.62 µs — the third point on the Observation #2 overhead axis.

Worker threads are modeled as a :class:`~repro.sim.resources.Resource`
with FIFO slot grants, so the schedule is a pure function of the sim
clock and the submission order: results stay byte-identical at any
``--jobs`` count like every other stack. Because the backend wraps the
sync passthrough, all opcodes are supported (append and zone management
included) — unlike io_uring, which cannot issue appends.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..hostif.commands import Command
from ..sim.resources import Resource
from .base import StorageStack

if TYPE_CHECKING:
    from ..device.core import DeviceCore

__all__ = ["ThreadPoolStack"]

#: Producer side: queue append + worker wake-up signal.
ENQUEUE_NS = 310
#: Worker side: wake from the condition variable + dequeue.
DISPATCH_NS = 430
#: Completion callback invoked on the worker before it takes new work.
CALLBACK_NS = 360

DEFAULT_THREADS = 4


class ThreadPoolStack(StorageStack):
    name = "thrpool"

    def __init__(self, device: DeviceCore, num_threads: int = DEFAULT_THREADS):
        if num_threads <= 0:
            raise ValueError(f"num_threads must be positive, got {num_threads}")
        super().__init__(device, submit_overhead_ns=ENQUEUE_NS + DISPATCH_NS,
                         complete_overhead_ns=CALLBACK_NS)
        self.num_threads = num_threads
        self._workers = Resource(self.sim, capacity=num_threads,
                                 name="thrpool.workers")

    def _issue(self, command: Command):
        traced = self.tracer.enabled
        entered = self.sim.now if traced else 0
        # The submitting thread only appends to the work queue; the
        # command then waits for a worker slot in FIFO order (this wait
        # is the stack's queueing delay and is part of the measured
        # latency, exactly like mq-deadline's scheduler hold time).
        yield ENQUEUE_NS
        slot = self._workers.request()
        yield slot
        try:
            yield DISPATCH_NS
            self.stats.dispatched += 1
            target = self.device.submit(command)
            cid = 0
            if traced:
                cid = self.device.last_cid
                self.tracer.span("host", f"{self.name}.submit", entered,
                                 self.sim.now, track="host", cid=cid,
                                 opcode=command.opcode.value)
            completion = yield target
            complete_started = self.sim.now if traced else 0
            # The callback runs on the worker thread; the slot frees
            # only after it returns (xNVMe invokes cb before the worker
            # loops for more work).
            yield CALLBACK_NS
            completion.completed_at = self.sim.now
            if traced:
                self.tracer.span("host", f"{self.name}.complete",
                                 complete_started, self.sim.now,
                                 track="host", cid=cid)
        finally:
            self._workers.release(slot)
        return completion
