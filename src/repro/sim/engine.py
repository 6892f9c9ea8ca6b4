"""Discrete-event simulation kernel.

The kernel is a minimal, deterministic event-driven simulator in the style
of SimPy: *processes* are Python generators that ``yield`` events
(timeouts, resource requests, other processes), and the engine advances a
simulated clock from event to event.

Simulated time is kept in **integer nanoseconds**. Integer time makes the
simulation exactly reproducible (no floating-point drift in comparisons)
and gives sub-nanosecond-free semantics for the microsecond-scale device
latencies this package models. Use the :func:`us`, :func:`ms` and
:func:`sec` helpers to construct durations.

Determinism: events scheduled for the same timestamp fire in scheduling
order, so a run with the same seed and inputs always produces the same
trace. Two structures maintain that order (DESIGN.md §10):

* **Immediate events** (``succeed``/``fail`` triggers, zero-delay
  timeouts, process bootstraps) go to a FIFO *ready deque* — no heap
  entry, no sequence number. The deque position *is* the tie-break.
* **Delayed events** go to a heap of ``(when, seq, event)`` entries; the
  monotonically increasing ``seq`` breaks same-timestamp ties.

The split is order-preserving because simulated time only moves forward:
every heap entry due at time ``T`` was scheduled strictly before the
clock reached ``T`` (delays are >= 1 ns), while every ready event due at
``T`` was triggered *at* ``T``. So whenever the clock advances to ``T``
the engine moves every heap entry due at ``T`` onto the (then empty)
ready deque, in heap order; no entry for ``T`` can enter the heap after
that, and the deque replays the exact global scheduling order.

Waiter storage: an event's waiters live in a single ``_cb`` slot holding
``None``, one waiter, or (rarely) a list of waiters. A waiter is either a
plain callable or a :class:`Process` stored *directly* — the dispatch
loop recognizes the class and resumes the generator inline, so the
overwhelmingly common wait shape (one process blocked on one timeout)
costs no bound-method allocation and no intermediate Python call.
Every other waiter is attached through :meth:`Event.add_callback`, which
keeps that packed form (DESIGN.md §15).

Dispatch: :meth:`Simulator.run` is the only code that dispatches an
event, so it is also the one place that checks failures. A failed
event hands its exception to its waiters; a failed :class:`Process`
that nothing waits on (and that is not the ``run(until=...)`` target)
makes ``run`` raise :class:`SimulationError`, chained to the original
exception, instead of dropping it.

Allocation discipline: every event is a fresh object that lives exactly
as long as something references it; the engine keeps no freelists, so
code that retains an event (completion handles, condition children)
always holds its own object. The hottest constructors (:class:`Timeout`,
:class:`Process`) inline ``Event.__init__`` to save a call per event.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "us",
    "ms",
    "sec",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "SimulationError",
    "Simulator",
    "events_total",
]

#: Number of nanoseconds per microsecond/millisecond/second.
NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000

#: Events dispatched by every Simulator in this process (read via
#: :func:`events_total`; the execution engine reports per-point deltas).
_EVENTS_TOTAL = 0


def events_total() -> int:
    """Process-wide count of dispatched simulation events."""
    return _EVENTS_TOTAL


def us(value: float) -> int:
    """Convert microseconds to integer simulated nanoseconds."""
    return round(value * NS_PER_US)


def ms(value: float) -> int:
    """Convert milliseconds to integer simulated nanoseconds."""
    return round(value * NS_PER_MS)


def sec(value: float) -> int:
    """Convert seconds to integer simulated nanoseconds."""
    return round(value * NS_PER_S)


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation kernel."""


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *untriggered*; :meth:`succeed` or :meth:`fail` triggers
    it, after which its callbacks run (at the current simulation step) and
    waiting processes resume. Events may carry a ``value`` (delivered as
    the result of the ``yield``) or an exception (raised in the waiter).
    """

    __slots__ = ("sim", "_cb", "_value", "_exception", "_triggered", "_processed")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._cb: Any = None
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False
        self._processed = False

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event fired successfully (not failed)."""
        return self._triggered and self._exception is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        if self._exception is not None:
            raise self._exception
        return self._value

    # -- waiters ---------------------------------------------------------
    def add_callback(self, callback: Any) -> None:
        """Attach a waiter: a callable taking the event, or a Process."""
        cb = self._cb
        if cb is None:
            self._cb = callback
        elif cb.__class__ is list:
            cb.append(callback)
        else:
            self._cb = [cb, callback]

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional value."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._value = value
        self._triggered = True
        self.sim._ready.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception, raised in all waiters."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        self._triggered = True
        self.sim._ready.append(self)
        return self


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: int, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Event.__init__ inlined (hottest constructor in the kernel).
        self.sim = sim
        self._cb = None
        self._exception = None
        self._processed = False
        self._triggered = True
        self._value = value
        delay = int(delay)
        self.delay = delay
        if delay:
            sim._sequence += 1
            heappush(sim._heap, (sim.now + delay, sim._sequence, self))
        else:
            sim._ready.append(self)


class Process(Event):
    """A running generator-based process.

    A process is itself an event that fires when the generator returns
    (successfully, with the generator's return value) or raises (failed
    with the exception). ``yield``-ing a process therefore waits for its
    completion; a process that fails with nothing waiting on it makes
    :meth:`Simulator.run` raise.
    """

    __slots__ = ("generator", "_name", "_send")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        # Event.__init__ inlined: one Process per command/flush makes this
        # the second-hottest constructor after Timeout.
        self.sim = sim
        self._cb = None
        self._value = None
        self._exception = None
        self._triggered = False
        self._processed = False
        self.generator = generator
        self._name = name
        self._send = generator.send
        # Bootstrap: resume the generator at the current time.
        sim._wake(self)

    @property
    def name(self) -> str:
        # Resolved lazily: the generator's __name__ is only needed in
        # error messages, not on the per-process construction path.
        return self._name or getattr(self.generator, "__name__", "process")

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    # -- internal --------------------------------------------------------
    def _resume(self, event: Event) -> None:
        # Simulator.run inlines this for a lone Process waiter; this
        # serves Processes in a multi-waiter list.
        if event._exception is None:
            self._advance(self._send, event._value)
        else:
            self._advance(self.generator.throw, event._exception)

    def _block_on(self, target: Any) -> None:
        """Wait on a non-Timeout yield target (the run loop calls this)."""
        if not isinstance(target, Event):
            self.fail(SimulationError(f"process {self.name!r} yielded non-event {target!r}"))
            return
        if target._processed:
            # Already completed: resume immediately (same timestep).
            self.sim._wake(self, target._value, target._exception)
        else:
            target.add_callback(self)

    def _advance(self, step: Callable, arg: Any) -> None:
        try:
            target = step(arg)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as error:  # noqa: BLE001 - propagate into event
            self.fail(error)
            return
        self._block_on(target)


class _Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._pending = 0
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event._processed:
                self._on_child(event)
            else:
                self._pending += 1
                event.add_callback(self._on_child)
        self._check_start()

    def _check_start(self) -> None:
        raise NotImplementedError

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError

    def _collect(self) -> dict[Event, Any]:
        return {e: e._value for e in self.events if e._processed and e._exception is None}


class AnyOf(_Condition):
    """Fires when any child event fires (value: dict of fired events)."""

    __slots__ = ()

    def _check_start(self) -> None:
        if not self._triggered and any(e._processed for e in self.events):
            self.succeed(self._collect())

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
        else:
            self.succeed(self._collect())


class AllOf(_Condition):
    """Fires when all child events fire (value: dict of all values)."""

    __slots__ = ()

    def _check_start(self) -> None:
        if not self._triggered and self._pending == 0:
            self.succeed(self._collect())

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._collect())


class Simulator:
    """The discrete-event engine: a clock, a ready deque, and a heap."""

    __slots__ = ("now", "_heap", "_ready", "_sequence", "_tick")

    def __init__(self):
        #: Current simulated time in nanoseconds. A plain attribute (not a
        #: property) because every model layer reads it on the hot path;
        #: treat it as read-only — only :meth:`run` advances it.
        self.now = 0
        self._heap: list[tuple[int, int, Event]] = []
        self._ready: deque[Event] = deque()
        self._sequence = 0
        self._tick: Optional[Callable[[int], None]] = None

    def add_tick_hook(self, hook: Callable[[int], None]) -> None:
        """Invoke ``hook(now)`` whenever the simulated clock advances.

        The hook fires once per *time advance* (per same-timestamp batch),
        not per event, immediately after ``self.now`` moves — including the
        final clamp to a ``run(until=time)`` deadline. It runs inside the
        dispatch loop, so it must be passive: it may read simulation and
        model state but must not create, trigger, or cancel events (the
        telemetry sampler is the intended client — observation without a
        footprint in the event order keeps runs byte-identical whether or
        not a hook is installed). Multiple hooks compose in registration
        order.
        """
        previous = self._tick
        if previous is None:
            self._tick = hook
        else:
            def chained(now: int, _first=previous, _second=hook) -> None:
                _first(now)
                _second(now)
            self._tick = chained

    # -- factories -------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` nanoseconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a generator as a process; returns its completion event."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling ------------------------------------------------------
    def _wake(self, process: "Process", value: Any = None,
              exception: Optional[BaseException] = None) -> None:
        """Queue an already-triggered event resuming ``process`` at the
        current time."""
        event = Event(self)
        event._value = value
        event._exception = exception
        event._triggered = True
        event._cb = process
        self._ready.append(event)

    # -- execution -------------------------------------------------------
    def run(self, until: Optional[int | Event] = None) -> Any:
        """Run until the heap empties, a deadline passes, or an event fires.

        ``until`` may be an absolute time in nanoseconds or an
        :class:`Event`; when an event is given its value is returned (or
        its exception raised). A failed :class:`Process` that nothing
        waits on raises :class:`SimulationError` from its exception.
        """
        # This is the only code that dispatches an event, and the hottest
        # code in the package (about half of all Python time), so the
        # dispatch is inlined here once. Semantics, in order:
        #
        # 1. mark processed, detach the waiter slot;
        # 2. a Process waiter resumes its generator inline — a yielded
        #    pending Timeout re-attaches in place, anything else goes
        #    through Process._block_on; StopIteration completes the
        #    process onto the ready deque (Event.succeed minus the
        #    already-triggered guard, which cannot fire for a
        #    just-returned generator);
        # 3. a list fans out in append order; any other waiter is called;
        # 4. with no waiter, a failed Process other than the ``until``
        #    target stops the run: nothing else would ever see its error.
        global _EVENTS_TOTAL
        if isinstance(until, Event):
            stop = until
            deadline = None
            if stop._processed:
                return stop.value
        else:
            stop = None
            deadline = None if until is None else int(until)
        heap = self._heap
        ready = self._ready
        popleft = ready.popleft
        append = ready.append
        dispatched = 0
        try:
            while True:
                while ready:
                    event = popleft()
                    event._processed = True
                    cb = event._cb
                    if cb is not None:
                        event._cb = None
                        cls = cb.__class__
                        if cls is Process:
                            if event._exception is None:
                                try:
                                    target = cb._send(event._value)
                                except StopIteration as stop_iter:
                                    cb._value = stop_iter.value
                                    cb._triggered = True
                                    append(cb)
                                except BaseException as error:  # noqa: BLE001
                                    cb.fail(error)
                                else:
                                    if target.__class__ is Timeout \
                                            and not target._processed:
                                        if target._cb is None:
                                            target._cb = cb
                                        else:
                                            target.add_callback(cb)
                                    else:
                                        cb._block_on(target)
                            else:
                                cb._advance(cb.generator.throw, event._exception)
                        elif cls is list:
                            for entry in cb:
                                if entry.__class__ is Process:
                                    entry._resume(event)
                                else:
                                    entry(event)
                        else:
                            cb(event)
                    elif event._exception is not None \
                            and event.__class__ is Process and event is not stop:
                        raise SimulationError(
                            f"process {event.name!r} failed with nothing "
                            f"waiting on it: {event._exception!r}"
                        ) from event._exception
                    dispatched += 1
                    if event is stop:
                        return stop.value
                if not heap:
                    break
                when = heap[0][0]
                if deadline is not None and when > deadline:
                    self.now = deadline
                    if self._tick is not None:
                        self._tick(deadline)
                    return None
                # Advance the clock and move the entries due now onto the
                # (empty) ready deque; see the module docstring.
                self.now = when
                if self._tick is not None:
                    self._tick(when)
                append(heappop(heap)[2])
                while heap and heap[0][0] == when:
                    append(heappop(heap)[2])
        finally:
            _EVENTS_TOTAL += dispatched
        if stop is not None:
            raise SimulationError(
                f"simulation ran out of events before {stop!r} fired"
            )
        if deadline is not None and deadline > self.now:
            self.now = deadline
            if self._tick is not None:
                self._tick(deadline)
        return None
