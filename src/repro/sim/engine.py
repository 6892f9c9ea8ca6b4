"""Discrete-event simulation kernel.

The kernel is a minimal, deterministic event-driven simulator in the style
of SimPy: *processes* are Python generators that ``yield`` events
(resource requests, other processes, conditions) or ``int`` delays to
sleep, and the engine advances a simulated clock from event to event.

Simulated time is kept in **integer nanoseconds**. Integer time makes the
simulation exactly reproducible (no floating-point drift in comparisons)
and gives sub-nanosecond-free semantics for the microsecond-scale device
latencies this package models. Use the :func:`us`, :func:`ms` and
:func:`sec` helpers to construct durations.

Sleeping: a process waits out a delay by yielding the ``int`` number of
nanoseconds (``yield service_ns``); no event is built for it. The
process itself goes on the heap (or, for ``0``, the ready deque) where
a :class:`Timeout` created in the yield expression would have gone, so
the event order is the same. Only an exact ``int`` sleeps: a negative
delay raises :class:`SimulationError` inside the generator, and any
other non-event (a float, a bool, a numpy integer) fails the process.

Determinism: events scheduled for the same timestamp fire in scheduling
order, so a run with the same seed and inputs always produces the same
trace. Two structures maintain that order (DESIGN.md §10):

* **Immediate events** (``succeed``/``fail`` triggers, zero-delay
  timeouts and sleeps, resource grants) go to a FIFO *ready deque* —
  no heap entry, no sequence number. The deque position *is* the
  tie-break. An untriggered :class:`Process` on the deque is either a
  bootstrap (a new process queues *itself* there) or a wake from a
  sleep; either way the run loop resumes it with ``None`` when it pops
  it.
* **Delayed events** and sleeping processes go to a heap of
  ``(when, seq, entry)`` tuples; the monotonically increasing ``seq``
  breaks same-timestamp ties.

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
overwhelmingly common wait shape (one process blocked on one pending
event) costs no bound-method allocation and no intermediate Python
call. Every other waiter is attached through :meth:`Event.add_callback`,
which keeps that packed form (DESIGN.md §15).

Dispatch: :meth:`Simulator.run` is the only code that dispatches an
event, so it is also the one place that checks failures. A failed
event hands its exception to its waiters; a failed :class:`Process`
that nothing waits on (and that is not the ``run(until=...)`` target)
makes ``run`` raise :class:`SimulationError`, chained to the original
exception, instead of dropping it.

Allocation discipline: every event is a fresh object that lives exactly
as long as something references it; the engine keeps no freelists, so
code that retains an event (completion handles, condition children)
always holds its own object. The hot constructors (:class:`Process`,
:class:`Timeout`) inline ``Event.__init__`` to save a call per event.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Generator, Iterable, Optional, Sequence

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
    """An event that fires after a fixed simulated delay.

    A timer for code that holds it as an event: one child of an
    ``any_of``, or an event queued now and yielded later. To sleep, a
    process yields the ``int`` delay itself (see the module docstring).
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: int, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Event.__init__ inlined.
        self.sim = sim
        self._cb = None
        self._exception = None
        self._processed = False
        self._triggered = True
        self._value = value
        delay = int(delay)
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

    The kernel steps a process only through ``_send``, so a subclass may
    define ``_send`` as a method and run as a record with no generator,
    as a conventional page flush does.
    """

    __slots__ = ("generator", "_name", "_send")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        # Event.__init__ inlined: one Process per host slot and GC victim
        # makes this a hot constructor.
        self.sim = sim
        self._cb = None
        self._value = None
        self._exception = None
        self._triggered = False
        self._processed = False
        self.generator = generator
        self._name = name
        self._send = generator.send
        # Bootstrap: the run loop takes the first step when it pops the
        # untriggered process off the ready deque.
        sim._ready.append(self)

    @property
    def name(self) -> str:
        # Resolved lazily: the generator's __name__ is only needed in
        # error messages, not on the per-process construction path.
        return self._name or getattr(self.generator, "__name__", "process")

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def resume(self, event: Event) -> None:
        """Resume the generator with ``event``'s outcome, as the dispatch
        of an event this process waits on does.

        :meth:`Simulator.run` inlines this for a lone Process waiter and
        calls it for each Process in a multi-waiter list; an event whose
        own callback decides which of its waiters resume calls it too.
        """
        if event._exception is None:
            self._advance(self._send, event._value)
        else:
            self._advance(self.generator.throw, event._exception)

    # -- internal --------------------------------------------------------
    def _block_on(self, target: Any) -> None:
        """Wait on a yield target the run loop does not handle inline: a
        sleep, a processed event, an event with its own ``add_callback``,
        or a non-event (which fails the process)."""
        if target.__class__ is int:
            sim = self.sim
            if target > 0:
                sim._sequence += 1
                heappush(sim._heap, (sim.now + target, sim._sequence, self))
            elif target == 0:
                sim._ready.append(self)
            else:
                # Raised inside the generator, so the process's own
                # handlers and finally blocks run.
                self._advance(self.generator.throw, SimulationError(
                    f"process {self.name!r} slept a negative delay: {target}"))
            return
        if not isinstance(target, Event):
            self.fail(SimulationError(f"process {self.name!r} yielded non-event {target!r}"))
            return
        if target._processed:
            # Already completed: resume immediately (same timestep).
            self.sim._wake(self, target._value, target._exception)
        else:
            target.add_callback(self)

    def _advance(self, step: Callable, arg: Any) -> None:
        # A step taken here runs inside another step (a fan-out, a
        # callback, a throw), so code may still run at ``now`` after it
        # yields: :meth:`Simulator.quiet_until` answers ``None`` inside.
        sim = self.sim
        sim._nested += 1
        try:
            target = step(arg)
        except StopIteration as stop:
            self._value = stop.value
            self._triggered = True
            self.sim._ready.append(self)
            return
        except BaseException as error:  # noqa: BLE001 - propagate into event
            self.fail(error)
            return
        finally:
            sim._nested -= 1
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
        on_child = self._on_child
        for event in self.events:
            if event._processed:
                on_child(event)
            else:
                self._pending += 1
                event.add_callback(on_child)
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


#: Event classes whose waiters the run loop attaches in place, as
#: :meth:`Event.add_callback` would. A subclass that overrides
#: ``add_callback`` must stay out of this set.
_INLINE_WAIT = frozenset({Event, Timeout, Process, AnyOf, AllOf})


class Simulator:
    """The discrete-event engine: a clock, a ready deque, and a heap."""

    __slots__ = ("now", "_heap", "_ready", "_sequence", "_tick", "_hooks",
                 "_deadline", "_stop", "_nested")

    def __init__(self):
        #: Current simulated time in nanoseconds. A plain attribute (not a
        #: property) because every model layer reads it on the hot path;
        #: treat it as read-only — only :meth:`run` advances it.
        self.now = 0
        self._heap: list[tuple[int, int, Event]] = []
        self._ready: deque[Event] = deque()
        self._sequence = 0
        self._tick: Optional[Callable[[int], None]] = None
        #: ``(hook, bulk)`` per tick hook, in registration order.
        self._hooks: list[tuple[Callable, Optional[Callable]]] = []
        #: The running ``run(until=...)`` deadline or target event.
        self._deadline: Optional[int] = None
        self._stop: Optional[Event] = None
        #: Steps in progress that :meth:`run` did not resume itself.
        self._nested = 0

    def add_tick_hook(self, hook: Callable[[int], None],
                      bulk: Optional[Callable[[Sequence[int]], None]] = None
                      ) -> None:
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

        Advances a process skipped (:meth:`replay_advances`) reach the
        hook too, before the clock gets there: the replayed time is the
        argument, and ``self.now`` is not moved. ``bulk``, if given,
        takes all the times of one replay at once (the sequence given to
        :meth:`replay_advances`) instead of one call per time.
        """
        self._hooks.append((hook, bulk))
        previous = self._tick
        if previous is None:
            self._tick = hook
        else:
            def chained(now: int, _first=previous, _second=hook) -> None:
                _first(now)
                _second(now)
            self._tick = chained

    def quiet_until(self) -> Optional[float]:
        """The earliest time at which anything other than the running
        step can run: the heap top or the running ``run(until=...)``
        deadline, whichever is first, or ``inf`` with neither.

        ``None`` when something can still run now: the ready deque is
        not empty, the caller's step was not resumed by :meth:`run`
        itself (a fan-out, a callback or a throw resumed it, and code
        after it still runs at ``now``), or the step's event is the
        ``run(until=event)`` target, after which the run's caller goes
        on at ``now``. Until the returned time only the caller's own
        wakes can happen, so it may skip those that change nothing and
        replay them (:meth:`replay_advances`).
        """
        if self._ready or self._nested:
            return None
        stop = self._stop
        if stop is not None and stop._processed:
            return None
        horizon = self._heap[0][0] if self._heap else inf
        deadline = self._deadline
        return horizon if deadline is None or horizon < deadline else deadline

    def replay_advances(self, times: Sequence[int]) -> None:
        """Hand every tick hook the clock advances to ``times``, in order,
        without moving the clock: the wakes of a step that skips them.

        ``times`` is a ``range`` with a positive step, or a list, and
        must increase from after ``now`` to before :meth:`quiet_until`,
        so no other entry is due in between. A range is checked in
        constant time.
        """
        if not times:
            return
        horizon = self.quiet_until()
        if type(times) is range:
            increasing = times.step > 0
        else:
            increasing = all(a < b for a, b in zip(times, times[1:]))
        if horizon is None or not increasing or not self.now < times[0] \
                or times[-1] >= horizon:
            raise SimulationError(
                f"cannot replay advances {times[0]}..{times[-1]} at "
                f"{self.now} (quiet until {horizon})")
        for hook, bulk in self._hooks:
            if bulk is not None:
                bulk(times)
            else:
                for when in times:
                    hook(when)

    # -- factories -------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` nanoseconds from now.

        For a timer the caller holds; a process that only sleeps yields
        the ``int`` delay instead.
        """
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
        current time (a process yielding on a processed event)."""
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
        # 1. an untriggered Process is a bootstrap or a wake from a
        #    sleep: take its next step with ``None``;
        # 2. otherwise mark processed and detach the waiter slot;
        # 3. a Process waiter resumes its generator inline — a yielded
        #    positive ``int`` puts the process itself on the heap, a
        #    yielded pending event of a class in ``_INLINE_WAIT`` takes
        #    it as its waiter in place, anything else goes through
        #    Process._block_on; StopIteration completes the process onto
        #    the ready deque (Event.succeed minus the already-triggered
        #    guard, which cannot fire for a just-returned generator);
        # 4. a list fans out in append order; any other waiter is called;
        # 5. with no waiter, a failed Process other than the ``until``
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
        outer = self._deadline, self._stop
        self._deadline, self._stop = deadline, stop
        heap = self._heap
        ready = self._ready
        popleft = ready.popleft
        append = ready.append
        inline_wait = _INLINE_WAIT
        dispatched = 0
        try:
            while True:
                while ready:
                    event = popleft()
                    dispatched += 1
                    if event._triggered:
                        event._processed = True
                        proc = event._cb
                        if proc is None:
                            if event is stop:
                                return stop.value
                            if event._exception is not None \
                                    and isinstance(event, Process):
                                raise SimulationError(
                                    f"process {event.name!r} failed with nothing "
                                    f"waiting on it: {event._exception!r}"
                                ) from event._exception
                            continue
                        event._cb = None
                        cls = proc.__class__
                        if cls is not Process or event._exception is not None:
                            if cls is Process:
                                proc._advance(proc.generator.throw,
                                              event._exception)
                            elif cls is list:
                                for entry in proc:
                                    if entry.__class__ is Process:
                                        entry.resume(event)
                                    else:
                                        entry(event)
                            else:
                                proc(event)
                            if event is stop:
                                return stop.value
                            continue
                        value = event._value
                    else:
                        proc = event
                        value = None
                    try:
                        target = proc._send(value)
                    except StopIteration as stop_iter:
                        proc._value = stop_iter.value
                        proc._triggered = True
                        append(proc)
                    except BaseException as error:  # noqa: BLE001
                        proc.fail(error)
                    else:
                        cls = target.__class__
                        if cls is int and target > 0:
                            # A sleep: the process itself is the heap
                            # entry, under the sequence number a Timeout
                            # built in the yield expression would draw.
                            self._sequence = seq = self._sequence + 1
                            heappush(heap, (self.now + target, seq, proc))
                        elif cls in inline_wait and not target._processed:
                            if target._cb is None:
                                target._cb = proc
                            else:
                                target.add_callback(proc)
                        else:
                            proc._block_on(target)
                    if event is stop and event._processed:
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
            self._deadline, self._stop = outer
        if stop is not None:
            raise SimulationError(
                f"simulation ran out of events before {stop!r} fired"
            )
        if deadline is not None and deadline > self.now:
            self.now = deadline
            if self._tick is not None:
                self._tick(deadline)
        return None
