"""Shared-resource primitives for the simulation kernel.

* :class:`PriorityFifo` — the one priority queue: a FIFO per level.
* :class:`Resource` — a server with fixed capacity and one FIFO queue of
  acquire requests per priority level. Models the controller, the ZNS
  firmware management unit and the thread pool's workers (NAND dies and
  buses serve their own queues, :mod:`repro.flash.backend`).
* :class:`Container` — a reservoir of continuous "stuff" (bytes) with
  blocking put/get and a non-blocking take. Models the device write
  buffer.

Priority semantics on :class:`Resource`: lower numeric priority is served
first; ties are FIFO. This is how the ZNS firmware unit prioritizes I/O
commands over background ``reset`` metadata work (paper §III-G).
"""

from __future__ import annotations

from collections import deque

from .engine import Event, SimulationError, Simulator

__all__ = ["PriorityFifo", "Resource", "Container"]


class PriorityFifo:
    """A FIFO per priority level, lowest level first: the order of a
    ``(priority, arrival)`` heap, but the models use a handful of levels,
    so scanning them is cheaper. Subclasses (:class:`Resource`, the flash
    servers) hold the ``_waiting`` count and the ``_levels`` dict."""

    __slots__ = ()

    def _enqueue(self, item, priority: int) -> None:
        queue = self._levels.get(priority)
        if queue is None:
            queue = deque()
            self._levels = dict(sorted({**self._levels, priority: queue}.items()))
        queue.append(item)
        self._waiting += 1

    def _dequeue(self):
        """Remove the next item; one must be waiting."""
        self._waiting -= 1
        for queue in self._levels.values():
            if queue:
                return queue.popleft()


class Resource(PriorityFifo):
    """A capacity-limited server with one FIFO queue per priority level.

    A request is a plain :class:`Event` that fires, with the resource as
    its value, once a slot is granted. A grant sets the event's fields
    and queues it on the ready deque directly, as :meth:`Event.succeed`
    would on an untriggered event. A freed slot goes to the next waiting
    request (:class:`PriorityFifo`).
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
        self._levels: dict[int, deque[Event]] = {}

    # -- protocol ----------------------------------------------------------
    def request(self, priority: int = 0) -> Event:
        """Ask for a slot; yield the returned event to block until granted."""
        sim = self.sim
        event = Event(sim)
        if self._in_use < self.capacity and not self._waiting:
            self._in_use += 1
            event._value = self
            event._triggered = True
            sim._ready.append(event)
            return event
        self._enqueue(event, priority)
        return event

    def release(self, request: Event) -> None:
        """Return a granted slot; a request still queued holds none."""
        if request._value is not self:
            raise SimulationError("release() of a request that holds no slot")
        # Hand the slot on, if anyone waits, without it ever becoming free.
        request._value = None
        if self._waiting:
            granted = self._dequeue()
            granted._value = self
            granted._triggered = True
            self.sim._ready.append(granted)
            return
        self._in_use -= 1


class Container:
    """A byte reservoir with blocking put (when full) and get (when empty).

    A put or get is a plain :class:`Event` holding its amount in ``_value``
    from the start: the amount is also the value it fires with.
    """

    __slots__ = ("sim", "capacity", "name", "_level", "_puts", "_gets")

    def __init__(self, sim: Simulator, capacity: int, name: str = ""):
        if capacity <= 0:
            raise SimulationError("container capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._level = 0
        self._puts: deque[Event] = deque()
        self._gets: deque[Event] = deque()

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
        op = Event(self.sim)
        op._value = amount
        self._puts.append(op)
        self._settle()
        return op

    def get(self, amount: int) -> Event:
        """Remove ``amount``; blocks until that much is available."""
        if amount < 0:
            raise SimulationError("container get amount must be >= 0")
        op = Event(self.sim)
        op._value = amount
        self._gets.append(op)
        self._settle()
        return op

    def take(self, amount: int) -> None:
        """Remove ``amount`` now; never blocks.

        For a caller that knows the bytes are buffered: it raises
        :class:`SimulationError` if they are not, or if a get is waiting
        (which a take would overtake). Blocked putters the freed space
        admits are woken through :meth:`_settle`, in the order a
        :meth:`get` satisfied at once would wake them.
        """
        if amount < 0:
            raise SimulationError("container take amount must be >= 0")
        if self._gets:
            raise SimulationError("take while a get is waiting")
        if amount > self._level:
            raise SimulationError(
                f"take of {amount} exceeds the level {self._level}"
            )
        self._level -= amount
        self._settle()

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

    def _settle(self) -> None:
        ready = self.sim._ready
        progressed = True
        while progressed:
            progressed = False
            if self._puts and self._level + self._puts[0]._value <= self.capacity:
                op = self._puts.popleft()
                self._level += op._value
                op._triggered = True
                ready.append(op)
                progressed = True
            if self._gets and self._level >= self._gets[0]._value:
                op = self._gets.popleft()
                self._level -= op._value
                op._triggered = True
                ready.append(op)
                progressed = True
