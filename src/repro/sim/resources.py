"""Shared-resource primitives for the simulation kernel.

Two primitives cover every contention point in the device models:

* :class:`Resource` — a server with fixed capacity and one FIFO queue of
  acquire requests per priority level. Models controller slots, NAND
  dies, channel buses, and the firmware management unit.
* :class:`Container` — a reservoir of continuous "stuff" (bytes) with
  blocking put/get. Models the device write buffer.

Priority semantics on :class:`Resource`: lower numeric priority is served
first; ties are FIFO. This is how the ZNS firmware unit prioritizes I/O
commands over background ``reset`` metadata work (paper §III-G).
"""

from __future__ import annotations

from collections import deque

from .engine import Event, SimulationError, Simulator

__all__ = ["Resource", "Container"]


class Resource:
    """A capacity-limited server with one FIFO queue per priority level.

    A request is a plain :class:`Event` that fires, with the resource as
    its value, once a slot is granted. A freed slot goes to the oldest
    request at the lowest waiting priority level — the order of a
    ``(priority, arrival)`` heap. The models use a handful of levels
    (power-loss panic, urgent GC, I/O, management), so scanning the
    levels in order is cheaper than keeping a heap.
    """

    __slots__ = ("sim", "capacity", "name", "_in_use", "_waiting", "_levels")

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiting = 0
        #: Priority level -> FIFO of waiting requests, in ascending
        #: priority order.
        self._levels: dict[int, deque[Event]] = {}

    # -- introspection ---------------------------------------------------
    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return self._waiting

    # -- protocol ----------------------------------------------------------
    def request(self, priority: int = 0) -> Event:
        """Ask for a slot; yield the returned event to block until granted."""
        event = Event(self.sim)
        if self._in_use < self.capacity and not self._waiting:
            self._in_use += 1
            event.succeed(self)
            return event
        queue = self._levels.get(priority)
        if queue is None:
            queue = deque()
            self._levels = dict(sorted({**self._levels, priority: queue}.items()))
        queue.append(event)
        self._waiting += 1
        return event

    def release(self, request: Event) -> None:
        """Return a granted slot; a request still queued holds none."""
        if request._value is not self:
            raise SimulationError("release() of a request that holds no slot")
        # Hand the slot on, if anyone waits, without it ever becoming free.
        request._value = None
        if self._waiting:
            for queue in self._levels.values():
                if queue:
                    self._waiting -= 1
                    queue.popleft().succeed(self)
                    return
        self._in_use -= 1


class _ContainerOp(Event):
    __slots__ = ("amount",)

    def __init__(self, sim: Simulator, amount: int):
        super().__init__(sim)
        self.amount = amount


class Container:
    """A byte reservoir with blocking put (when full) and get (when empty)."""

    __slots__ = ("sim", "capacity", "name", "_level", "_puts", "_gets")

    def __init__(self, sim: Simulator, capacity: int, name: str = ""):
        if capacity <= 0:
            raise SimulationError("container capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._level = 0
        self._puts: deque[_ContainerOp] = deque()
        self._gets: deque[_ContainerOp] = deque()

    @property
    def level(self) -> int:
        return self._level

    def put(self, amount: int) -> Event:
        """Add ``amount``; blocks while it would overflow the capacity."""
        if amount < 0:
            raise SimulationError("container put amount must be >= 0")
        if amount > self.capacity:
            raise SimulationError(
                f"put of {amount} can never fit capacity {self.capacity}"
            )
        op = _ContainerOp(self.sim, amount)
        self._puts.append(op)
        self._settle()
        return op

    def get(self, amount: int) -> Event:
        """Remove ``amount``; blocks until that much is available."""
        if amount < 0:
            raise SimulationError("container get amount must be >= 0")
        op = _ContainerOp(self.sim, amount)
        self._gets.append(op)
        self._settle()
        return op

    def force_level(self, level: int) -> None:
        """Fixture: set the level directly, bypassing put/get semantics.

        Only legal while no put or get is waiting — used by device
        state restore to reinstate stable buffered residuals.
        """
        if not 0 <= level <= self.capacity:
            raise SimulationError(
                f"force_level {level} out of range 0..{self.capacity}"
            )
        if self._puts or self._gets:
            raise SimulationError(
                "force_level while put/get operations are waiting"
            )
        self._level = level

    def drain(self, amount: int) -> int:
        """Remove up to ``amount`` immediately, never blocking.

        Unlike :meth:`get`, this is a fault fixture (power loss dropping
        the unflushed buffer tail): it takes whatever is available, wakes
        any putters the freed space unblocks, and returns the bytes
        actually removed.
        """
        if amount < 0:
            raise SimulationError(f"negative drain amount: {amount}")
        taken = min(amount, self._level)
        if taken:
            self._level -= taken
            self._settle()
        return taken

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._puts and self._level + self._puts[0].amount <= self.capacity:
                op = self._puts.popleft()
                self._level += op.amount
                op.succeed(op.amount)
                progressed = True
            if self._gets and self._level >= self._gets[0].amount:
                op = self._gets.popleft()
                self._level -= op.amount
                op.succeed(op.amount)
                progressed = True
