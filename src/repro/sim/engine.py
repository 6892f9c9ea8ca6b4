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
costs no bound-method allocation and no intermediate Python call. Code
that needs the historical list semantics uses :meth:`Event.add_callback`
/ :meth:`Event.remove_callback` (DESIGN.md §15).

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
    "Interrupt",
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


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries the value supplied to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


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
    @property
    def callbacks(self) -> list:
        """The waiters attached to this event (a snapshot list).

        Kept for introspection; mutate through :meth:`add_callback` /
        :meth:`remove_callback`, which maintain the packed single-slot
        representation the dispatch loop relies on.
        """
        cb = self._cb
        if cb is None:
            return []
        if cb.__class__ is list:
            return list(cb)
        return [cb]

    def add_callback(self, callback: Any) -> None:
        """Attach a waiter: a callable taking the event, or a Process."""
        cb = self._cb
        if cb is None:
            self._cb = callback
        elif cb.__class__ is list:
            cb.append(callback)
        else:
            self._cb = [cb, callback]

    def remove_callback(self, callback: Any) -> None:
        """Detach a waiter; raises ValueError if it is not attached."""
        cb = self._cb
        if cb.__class__ is list:
            cb.remove(callback)
        elif cb is callback or (cb is not None and cb == callback):
            self._cb = None
        else:
            raise ValueError(f"{callback!r} is not waiting on {self!r}")

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

    def _run_callbacks(self) -> None:
        # Out-of-loop dispatch (step(), tests). Simulator.run inlines this.
        self._processed = True
        cb = self._cb
        if cb is None:
            return
        self._cb = None
        cls = cb.__class__
        if cls is Process:
            cb._resume(self)
        elif cls is list:
            for entry in cb:
                if entry.__class__ is Process:
                    entry._resume(self)
                else:
                    entry(self)
        else:
            cb(self)


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
    completion.
    """

    __slots__ = ("generator", "_waiting_on", "_name", "_send")

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
        self._waiting_on: Optional[Event] = None
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

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a
        process blocked on an event detaches it from that event first.
        """
        if self._triggered:
            raise SimulationError("cannot interrupt a finished process")
        target = self._waiting_on
        if target is not None:
            try:
                target.remove_callback(self)
            except ValueError:
                pass
            self._waiting_on = None
        self.sim._wake(lambda _: self._throw(Interrupt(cause)))

    # -- internal --------------------------------------------------------
    def _resume(self, event: Event) -> None:
        # One resume per yield. Simulator.run inlines this body for the
        # single-waiter case; this method serves multi-waiter lists and
        # step().
        self._waiting_on = None
        if event._exception is not None:
            self._advance(self.generator.throw, event._exception)
            return
        try:
            target = self._send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as error:  # noqa: BLE001 - propagate into event
            self.fail(error)
            return
        if target.__class__ is Timeout and not target._processed:
            self._waiting_on = target
            if target._cb is None:
                target._cb = self
            else:
                target.add_callback(self)
            return
        self._block_on(target)

    def _block_on(self, target: Any) -> None:
        """Wait on a non-Timeout yield target (the run loop calls this)."""
        if not isinstance(target, Event):
            self.fail(SimulationError(f"process {self.name!r} yielded non-event {target!r}"))
            return
        if target._processed:
            # Already completed: resume immediately (same timestep).
            self._waiting_on = self.sim._wake(
                self, target._value, target._exception
            )
        else:
            target.add_callback(self)
            self._waiting_on = target

    def _throw(self, exc: BaseException) -> None:
        self._advance(self.generator.throw, exc)

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


class _ScheduledCall:
    """Deferred zero-argument call bound to a result event (see
    :meth:`Simulator.schedule`)."""

    __slots__ = ("handle", "callback")

    def __init__(self, handle: Event, callback: Callable[[], Any]):
        self.handle = handle
        self.callback = callback

    def __call__(self, _event: Event) -> None:
        try:
            value = self.callback()
        except BaseException as error:  # noqa: BLE001 - delivered to waiters
            self.handle.fail(error)
        else:
            self.handle.succeed(value)


class Simulator:
    """The discrete-event engine: a clock, a ready deque, and a heap."""

    __slots__ = ("now", "_heap", "_ready", "_sequence", "_tick")

    def __init__(self):
        #: Current simulated time in nanoseconds. A plain attribute (not a
        #: property) because every model layer reads it on the hot path;
        #: treat it as read-only — only :meth:`run` and :meth:`step`
        #: advance it.
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
    def _wake(self, waiter: Any, value: Any = None,
              exception: Optional[BaseException] = None) -> Event:
        """An already-triggered event resuming ``waiter`` (a callable or a
        Process) at the current time."""
        event = Event(self)
        event._value = value
        event._exception = exception
        event._triggered = True
        event._cb = waiter
        self._ready.append(event)
        return event

    def schedule(self, delay: int, callback: Callable[[], Any]) -> Event:
        """Run ``callback`` after ``delay`` nanoseconds.

        The returned event fires with the callback's return value, or —
        if the callback raises — fails via :meth:`Event.fail`, so the
        error reaches whoever waits on the handle instead of unwinding
        the dispatch loop mid-step with half the timestep unprocessed.
        """
        handle = Event(self)
        self.timeout(delay).add_callback(_ScheduledCall(handle, callback))
        return handle

    # -- execution -------------------------------------------------------
    def step(self) -> None:
        """Process the single next event."""
        global _EVENTS_TOTAL
        heap = self._heap
        ready = self._ready
        if not ready:
            if not heap:
                raise SimulationError("no scheduled events")
            # Advance the clock exactly as run() does.
            when = self.now = heap[0][0]
            if self._tick is not None:
                self._tick(when)
            while heap and heap[0][0] == when:
                ready.append(heappop(heap)[2])
        ready.popleft()._run_callbacks()
        _EVENTS_TOTAL += 1

    def run(self, until: Optional[int | Event] = None) -> Any:
        """Run until the heap empties, a deadline passes, or an event fires.

        ``until`` may be an absolute time in nanoseconds or an
        :class:`Event`; when an event is given its value is returned.
        """
        # This loop is the hottest code in the package (about half of all
        # Python time), so it inlines event dispatch — Event._run_callbacks
        # plus Process._resume — once. Dispatch semantics, in order:
        #
        # 1. mark processed, detach the waiter slot;
        # 2. a Process waiter resumes its generator inline — a yielded
        #    pending Timeout re-attaches in place, anything else goes
        #    through Process._block_on; StopIteration completes the
        #    process onto the ready deque (Event.succeed minus the
        #    already-triggered guard, which cannot fire for a
        #    just-returned generator);
        # 3. a list fans out in append order; any other waiter is called.
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
                            cb._waiting_on = None
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
                                        cb._waiting_on = target
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
