"""Unit tests for the discrete-event simulation kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    AllOf,
    AnyOf,
    Container,
    Event,
    Resource,
    SimulationError,
    Simulator,
    ms,
    sec,
    us,
)
from repro.sim.engine import Process, events_total


class TestTimeHelpers:
    def test_us_is_thousand_ns(self):
        assert us(1) == 1_000

    def test_ms_is_million_ns(self):
        assert ms(1) == 1_000_000

    def test_sec_is_billion_ns(self):
        assert sec(1) == 1_000_000_000

    def test_fractional_us_rounds(self):
        assert us(1.8564) == 1_856

    def test_helpers_return_ints(self):
        assert isinstance(us(3.3), int)
        assert isinstance(ms(0.5), int)
        assert isinstance(sec(2.25), int)


class TestTimeouts:
    def test_clock_starts_at_zero(self):
        sim = Simulator()
        assert sim.now == 0

    def test_timeout_advances_clock(self):
        sim = Simulator()
        sim.timeout(us(5))
        sim.run()
        assert sim.now == us(5)

    def test_run_until_deadline_stops_clock_exactly(self):
        sim = Simulator()
        sim.timeout(us(100))
        sim.run(until=us(30))
        assert sim.now == us(30)

    def test_run_until_deadline_with_no_events(self):
        sim = Simulator()
        sim.run(until=us(10))
        assert sim.now == us(10)

    def test_event_exactly_at_deadline_fires(self):
        # The stop condition is when > deadline: an event scheduled at
        # exactly the deadline belongs to the run and must fire.
        sim = Simulator()
        fired = []

        def proc():
            yield sim.timeout(us(30))
            fired.append(sim.now)

        sim.process(proc())
        sim.run(until=us(30))
        assert fired == [us(30)]
        assert sim.now == us(30)

    def test_event_just_past_deadline_does_not_fire(self):
        sim = Simulator()
        fired = []

        def proc():
            yield sim.timeout(us(30) + 1)
            fired.append(sim.now)

        sim.process(proc())
        sim.run(until=us(30))
        assert fired == []
        assert sim.now == us(30)

    def test_negative_timeout_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(-1)

    def test_timeouts_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.timeout(us(3)).add_callback(lambda _: fired.append("c"))
        sim.timeout(us(1)).add_callback(lambda _: fired.append("a"))
        sim.timeout(us(2)).add_callback(lambda _: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_equal_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for tag in range(5):
            sim.timeout(us(1)).add_callback(lambda _, t=tag: fired.append(t))
        sim.run()
        assert fired == [0, 1, 2, 3, 4]


class TestProcesses:
    def test_process_yields_timeouts(self):
        sim = Simulator()
        trace = []

        def proc():
            trace.append(sim.now)
            yield sim.timeout(us(2))
            trace.append(sim.now)
            yield sim.timeout(us(3))
            trace.append(sim.now)

        sim.process(proc())
        sim.run()
        assert trace == [0, us(2), us(5)]

    def test_process_return_value_via_run(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1)
            return 42

        done = sim.process(proc())
        assert sim.run(until=done) == 42

    def test_yielding_a_process_waits_for_it(self):
        sim = Simulator()

        def child():
            yield sim.timeout(us(10))
            return "payload"

        def parent():
            value = yield sim.process(child())
            return (sim.now, value)

        result = sim.run(until=sim.process(parent()))
        assert result == (us(10), "payload")

    def test_yielding_completed_process_resumes_immediately(self):
        sim = Simulator()

        def child():
            return "done"
            yield  # pragma: no cover

        def parent():
            proc = sim.process(child())
            yield sim.timeout(us(5))  # child finishes long before this
            value = yield proc
            return (sim.now, value)

        assert sim.run(until=sim.process(parent())) == (us(5), "done")

    def test_process_exception_propagates_to_waiter(self):
        sim = Simulator()

        def child():
            yield sim.timeout(1)
            raise ValueError("boom")

        def parent():
            with pytest.raises(ValueError, match="boom"):
                yield sim.process(child())
            return "handled"

        assert sim.run(until=sim.process(parent())) == "handled"

    def test_unwaited_failure_is_stored_on_event(self):
        # Stored on the event, and reported: run() does not drop it.
        sim = Simulator()

        def child():
            raise RuntimeError("lost")
            yield  # pragma: no cover

        proc = sim.process(child())
        with pytest.raises(SimulationError, match="child"):
            sim.run()
        assert proc.triggered and not proc.ok

    def test_yielding_non_event_fails_process(self):
        # Only an exact int sleeps; anything else that is not an event
        # fails the process.
        for target in (3.0, True, np.int64(3), "3"):
            sim = Simulator()

            def bad():
                yield target

            proc = sim.process(bad())
            with pytest.raises(SimulationError, match="non-event"):
                sim.run()
            assert proc.triggered and not proc.ok

        # A negative sleep raises inside the generator, as building a
        # negative Timeout does there, so the process's own finally runs.
        sim = Simulator()
        cleaned = []

        def negative():
            try:
                yield -1
            finally:
                cleaned.append(sim.now)

        proc = sim.process(negative())
        with pytest.raises(SimulationError, match="failed with nothing"):
            sim.run()
        assert cleaned == [0]
        assert isinstance(proc._exception, SimulationError)
        assert "negative" in str(proc._exception)

    def test_fire_and_forget_failure_stops_run(self):
        sim = Simulator()
        error = ValueError("worker died")

        def worker():
            yield sim.timeout(us(4))
            raise error

        sim.process(worker())
        with pytest.raises(SimulationError, match="worker.*worker died") as info:
            sim.run()
        assert info.value.__cause__ is error
        assert sim.now == us(4)
        # The run(until=...) target still raises its own exception.
        with pytest.raises(ValueError, match="worker died"):
            sim.run(until=sim.process(worker()))


class _Countdown(Process):
    """A generator-free record: ``_send`` is a method that sleeps each
    delay in turn, logs its wakes and parks (returns ``None``) when done,
    or raises ``error`` instead of its last sleep."""

    __slots__ = ("delays", "log", "error")

    def __init__(self, sim, delays, log, error=None):
        self.sim = sim
        self._cb = self._value = self._exception = self.generator = None
        self._triggered = self._processed = False
        self._name = "countdown"
        self.delays, self.log, self.error = list(delays), log, error
        sim._ready.append(self)

    def _block_on(self, target):
        if target is not None:
            Process._block_on(self, target)

    def _send(self, _value):
        self.log.append(self.sim.now)
        if self.error is not None and len(self.delays) == 1:
            raise self.error
        return self.delays.pop(0) if self.delays else None


class TestRecordProcess:
    """A ``Process`` subclass whose ``_send`` is a method runs with no
    generator: the kernel steps it through ``_send`` alone."""

    def test_method_send_runs_without_a_generator(self):
        sim, log = Simulator(), []
        _Countdown(sim, [us(1), us(2)], log)
        before = events_total()
        sim.run()
        # The bootstrap and two wakes; a record that parks dispatches no
        # completion.
        assert events_total() - before == 3
        assert log == [0, us(1), us(3)]

    def test_failing_record_raises_from_the_original_exception(self):
        sim = Simulator()
        error = KeyError("page")
        _Countdown(sim, [us(2), us(5)], [], error)
        with pytest.raises(SimulationError, match="countdown.*page") as info:
            sim.run()
        assert info.value.__cause__ is error
        assert sim.now == us(2)


class TestBootstrap:
    def test_processes_queue_themselves_and_start_in_creation_order(self):
        sim = Simulator()
        started = []

        def worker(index):
            started.append(index)
            yield sim.timeout(1)

        procs = [sim.process(worker(index)) for index in range(3)]
        # No wake event: the untriggered processes are the queue entries.
        assert list(sim._ready) == procs
        before = events_total()
        sim.run(until=0)
        assert started == [0, 1, 2]
        assert events_total() - before == 3
        assert not any(proc.triggered for proc in procs)

    def test_process_waited_on_before_its_first_step_delivers_its_value(self):
        sim = Simulator()

        def child():
            return "payload"
            yield  # pragma: no cover

        def parent():
            proc = sim.process(child())
            assert not proc.triggered  # its first step has not run yet
            value = yield proc
            return (sim.now, value)

        assert sim.run(until=sim.process(parent())) == (0, "payload")

    def test_until_target_is_not_done_when_its_bootstrap_pops(self):
        sim = Simulator()

        def worker():
            yield sim.timeout(us(3))
            return 7

        assert sim.run(until=sim.process(worker())) == 7
        assert sim.now == us(3)


def _timeout_sleep(sim, delay):
    return sim.timeout(delay)


def _int_sleep(sim, delay):
    return delay


def _run_program(program, capacity, sleep):
    """Run ``program`` (one op list per process) and return its
    ``(now, process, step)`` trace and dispatched-event count; every
    sleep goes through ``sleep(sim, delay)`` in the yield expression."""
    sim = Simulator()
    disk = Resource(sim, capacity=capacity)
    trace = []

    def sleeper(name, delays):
        for step, delay in enumerate(delays):
            yield sleep(sim, delay)
            trace.append((sim.now, name, step))

    def worker(name, ops):
        for step, (kind, arg) in enumerate(ops):
            if kind == "sleep":
                yield sleep(sim, arg)
            elif kind == "hold":
                request = disk.request()
                yield request
                yield sleep(sim, arg)
                disk.release(request)
            elif kind == "start":
                sim.process(sleeper(f"{name}.{step}", arg))
            else:
                yield sim.all_of([
                    sim.process(sleeper(f"{name}.{step}.{i}", [delay]))
                    for i, delay in enumerate(arg)
                ])
            trace.append((sim.now, name, step))

    for index, ops in enumerate(program):
        sim.process(worker(f"p{index}", ops))
    before = events_total()
    sim.run()
    return trace, events_total() - before


_DELAY = st.integers(0, 4)
_OP = st.one_of(
    st.tuples(st.just("sleep"), _DELAY),
    st.tuples(st.just("hold"), _DELAY),
    st.tuples(st.just("start"), st.lists(_DELAY, min_size=1, max_size=3)),
    st.tuples(st.just("all_of"), st.lists(_DELAY, min_size=1, max_size=3)),
)


class TestSleep:
    """A process sleeps by yielding an int: the process itself takes the
    heap or deque place a Timeout built in the yield expression took."""

    @settings(max_examples=200, deadline=None)
    @given(program=st.lists(st.lists(_OP, min_size=1, max_size=6),
                            min_size=1, max_size=5),
           capacity=st.integers(1, 2))
    def test_int_sleep_matches_timeout_sleep(self, program, capacity):
        assert (_run_program(program, capacity, _int_sleep)
                == _run_program(program, capacity, _timeout_sleep))

    def test_zero_sleep_takes_the_deque_place_of_a_zero_timeout(self):
        def order(sleep):
            sim = Simulator()
            log = []
            gate = sim.event()

            def waiter():
                yield gate
                log.append("waiter")

            def sleeper():
                gate.succeed()
                yield sleep(sim, 0)
                log.append("sleeper")

            def other():
                yield sim.timeout(0)
                log.append("other")

            sim.process(waiter())
            sim.process(sleeper())
            sim.process(other())
            sim.run()
            return log

        assert order(_timeout_sleep) == ["waiter", "sleeper", "other"]
        assert order(_int_sleep) == order(_timeout_sleep)

    def test_sleeper_past_a_deadline_wakes_on_the_next_run(self):
        sim = Simulator()
        woke = []

        def sleeper():
            yield us(5)
            woke.append(sim.now)

        sim.process(sleeper())
        sim.run(until=us(2))
        assert sim.now == us(2) and woke == []
        sim.run()
        assert woke == [us(5)]

    @pytest.mark.parametrize("sleep", [_int_sleep, _timeout_sleep],
                             ids=["int", "timeout"])
    def test_spawned_sleeper(self, sleep):
        sim = Simulator()
        woke = []

        def sleeper():
            for _ in range(2):
                yield sleep(sim, us(3))
                woke.append(sim.now)

        sim.process(sleeper())  # started, and nothing waits on it
        before = events_total()
        sim.run()
        # The bootstrap, two wakes and the unwaited completion.
        assert events_total() - before == 4
        assert woke == [us(3), us(6)]

    def test_sleep_after_a_wake_through_resume(self):
        sim = Simulator()
        log = []

        class Parking(Event):
            __slots__ = ("parked",)

            def __init__(self, sim):
                super().__init__(sim)
                self.parked = []

            def add_callback(self, waiter):
                self.parked.append(waiter)

        gate = Parking(sim)

        def sleeper():
            value = yield gate
            log.append((sim.now, value))
            yield us(5)
            log.append((sim.now, "slept"))
            yield 0
            log.append((sim.now, "yielded"))

        def opener():
            yield us(10)
            gate.succeed("open")
            for waiter in gate.parked:
                waiter.resume(gate)

        sim.process(sleeper())
        sim.process(opener())
        sim.run()
        assert log == [(us(10), "open"), (us(15), "slept"),
                       (us(15), "yielded")]


class TestInlineAttach:
    """A process yielding a pending event of a kernel class becomes its
    waiter in place, as add_callback would store it."""

    @staticmethod
    def wait_on(sim, target):
        def waiter():
            return (yield target)

        proc = sim.process(waiter())
        sim.run()  # the bootstrap: the waiter yields the pending target
        assert target._cb is proc
        return proc

    def test_plain_event(self):
        sim = Simulator()
        event = sim.event()
        proc = self.wait_on(sim, event)
        event.succeed("v")
        assert sim.run(until=proc) == "v"

    def test_container_op(self):
        sim = Simulator()
        tank = Container(sim, capacity=10)
        tank.put(10)
        blocked = tank.put(4)
        proc = self.wait_on(sim, blocked)
        tank.take(4)
        assert sim.run(until=proc) == 4
        assert tank.level == 10

    def test_all_of(self):
        sim = Simulator()
        first, second = sim.event(), sim.event()
        both = sim.all_of([first, second])
        proc = self.wait_on(sim, both)
        first.succeed(1)
        second.succeed(2)
        assert sim.run(until=proc) == {first: 1, second: 2}

    def test_subclass_with_its_own_add_callback_is_not_attached_in_place(self):
        sim = Simulator()
        parked = []

        class Parking(Event):
            __slots__ = ()

            def add_callback(self, waiter):
                parked.append(waiter)

        def waiter():
            yield Parking(sim)

        proc = sim.process(waiter())
        sim.run()
        assert parked == [proc]


class TestEvents:
    def test_manual_succeed_delivers_value(self):
        sim = Simulator()
        gate = sim.event()

        def opener():
            yield sim.timeout(us(7))
            gate.succeed("open")

        def waiter():
            value = yield gate
            return (sim.now, value)

        sim.process(opener())
        assert sim.run(until=sim.process(waiter())) == (us(7), "open")

    def test_double_trigger_rejected(self):
        sim = Simulator()
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_value_before_trigger_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            _ = sim.event().value

    def test_failed_event_value_raises(self):
        sim = Simulator()
        event = sim.event()
        event.fail(KeyError("k"))
        sim.run()
        with pytest.raises(KeyError):
            _ = event.value


class TestConditions:
    def test_all_of_waits_for_slowest(self):
        sim = Simulator()

        def proc():
            yield AllOf(sim, [sim.timeout(us(1)), sim.timeout(us(9)), sim.timeout(us(4))])
            return sim.now

        assert sim.run(until=sim.process(proc())) == us(9)

    def test_any_of_fires_on_fastest(self):
        sim = Simulator()

        def proc():
            yield AnyOf(sim, [sim.timeout(us(8)), sim.timeout(us(2))])
            return sim.now

        assert sim.run(until=sim.process(proc())) == us(2)

    def test_all_of_collects_values(self):
        sim = Simulator()
        a = sim.timeout(1, value="a")
        b = sim.timeout(2, value="b")

        def proc():
            values = yield sim.all_of([a, b])
            return sorted(values.values())

        assert sim.run(until=sim.process(proc())) == ["a", "b"]

    def test_empty_all_of_fires_immediately(self):
        sim = Simulator()

        def proc():
            yield sim.all_of([])
            return sim.now

        assert sim.run(until=sim.process(proc())) == 0


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build_and_run():
            sim = Simulator()
            trace = []

            def worker(tag, delay):
                for _ in range(3):
                    yield sim.timeout(delay)
                    trace.append((sim.now, tag))

            for tag, delay in [("a", us(3)), ("b", us(5)), ("c", us(3))]:
                sim.process(worker(tag, delay))
            sim.run()
            return trace

        assert build_and_run() == build_and_run()

    def test_run_until_event_with_starved_heap_raises(self):
        sim = Simulator()
        never = sim.event()
        with pytest.raises(SimulationError):
            sim.run(until=never)


class TestQuietUntil:
    """``quiet_until`` is the earliest time anything but the running step
    can run, or ``None`` while something can still run now."""

    def probe(self, sim, log, *sleeps):
        """A process that sleeps ``sleeps`` in turn and records
        ``(now, quiet_until())`` after each wake."""
        def proc():
            for sleep in sleeps:
                yield sleep
                log.append((sim.now, sim.quiet_until()))
        return sim.process(proc())

    def test_nothing_else_pending_is_quiet_forever(self):
        sim, log = Simulator(), []
        self.probe(sim, log, us(1))
        sim.run()
        assert log == [(us(1), math.inf)]

    def test_heap_top(self):
        sim, log = Simulator(), []
        sim.timeout(us(7))
        self.probe(sim, log, us(1), us(10))
        sim.run()
        assert log == [(us(1), us(7)), (us(11), math.inf)]

    def test_ready_deque_not_empty(self):
        sim, log = Simulator(), []
        sim.timeout(us(9))
        self.probe(sim, log, us(1), us(1))

        def sleeper():  # starts after the probe, so wakes behind it
            yield us(1)

        sim.process(sleeper())
        sim.run()
        assert log == [(us(1), None), (us(2), us(9))]

    def test_run_deadline_comes_first(self):
        sim, log = Simulator(), []
        sim.timeout(us(9))
        self.probe(sim, log, us(1), us(4))
        sim.run(until=us(3))
        assert log == [(us(1), us(3))]
        sim.run()
        # The deadline went with the run that set it.
        assert log[1] == (us(5), us(9))
        assert sim.quiet_until() == math.inf

    def test_deadline_after_the_heap_top(self):
        sim, log = Simulator(), []
        sim.timeout(us(2))
        self.probe(sim, log, us(1))
        sim.run(until=us(8))
        assert log == [(us(1), us(2))]

    def test_fan_out_resume_is_not_quiet(self):
        """Processes that a callback or a fan-out resumes share their
        step with code that still runs at ``now``."""
        sim, log = Simulator(), []
        gate = sim.event()

        def waiter(tag):
            yield gate
            log.append((tag, sim.quiet_until()))

        sim.process(waiter("first"))
        sim.process(waiter("second"))

        def opener():
            yield us(1)
            gate.succeed()

        sim.process(opener())
        sim.run()
        assert log == [("first", None), ("second", None)]
        assert sim._nested == 0

    def test_waiter_on_the_run_target_is_not_quiet(self):
        """``run(until=event)`` returns once the target's waiter stepped,
        and its caller goes on at that time."""
        sim, log = Simulator(), []
        gate = sim.event()

        def waiter():
            yield gate
            log.append(sim.quiet_until())

        sim.process(waiter())
        sim.run()
        gate.succeed()
        sim.run(until=gate)
        assert log == [None]

    def test_resume_from_another_step_is_not_quiet(self):
        sim, log = Simulator(), []

        class Parking(Event):
            __slots__ = ("parked",)

            def __init__(self, sim):
                super().__init__(sim)
                self.parked = []

            def add_callback(self, waiter):
                self.parked.append(waiter)

        gate = Parking(sim)

        def parked():
            yield gate
            log.append(("resumed", sim.quiet_until()))
            yield us(1)
            log.append(("woke", sim.quiet_until()))

        def opener():
            yield us(1)
            for waiter in gate.parked:
                waiter.resume(gate)
            log.append(("opener", sim.quiet_until()))

        sim.process(parked())
        sim.process(opener())
        sim.run()
        # The opener's step went on after the resume, with nothing on
        # the deque and only the resumed process's sleep on the heap.
        assert log == [("resumed", None), ("opener", us(2)),
                       ("woke", math.inf)]


class TestReplayAdvances:
    def test_plain_and_bulk_hooks_see_every_time_in_order(self):
        sim = Simulator()
        seen = []
        sim.add_tick_hook(lambda now: seen.append(("plain", now)))
        sim.add_tick_hook(lambda now: seen.append(("second", now)),
                          bulk=lambda times: seen.append(("bulk", times)))

        def proc():
            yield us(1)
            sim.replay_advances([us(2), us(3)])
            assert sim.now == us(1)
            yield us(3)

        sim.process(proc())
        sim.run()
        assert seen == [("plain", us(1)), ("second", us(1)),
                        ("plain", us(2)), ("plain", us(3)),
                        ("bulk", [us(2), us(3)]),
                        ("plain", us(4)), ("second", us(4))]

    @pytest.mark.parametrize("times", [
        [us(1)],            # not after now
        [us(3), us(2)],     # not increasing
        [us(2), us(2)],
        [us(5)],            # the heap top is due then
        [us(6)],
    ])
    def test_times_outside_the_quiet_stretch_raise(self, times):
        sim = Simulator()
        sim.add_tick_hook(lambda now: None)
        sim.timeout(us(5))
        errors = []

        def proc():
            yield us(1)
            try:
                sim.replay_advances(times)
            except SimulationError as error:
                errors.append(error)

        sim.process(proc())
        sim.run()
        assert len(errors) == 1

    def test_replay_while_not_quiet_raises(self):
        sim = Simulator()
        errors = []

        def proc():
            yield us(1)
            try:
                sim.replay_advances([us(2)])
            except SimulationError as error:
                errors.append(error)

        def sleeper():  # starts after proc, so wakes behind it
            yield us(1)

        sim.process(proc())
        sim.process(sleeper())
        sim.run()
        assert len(errors) == 1

    def test_a_range_is_accepted(self):
        sim = Simulator()
        seen = []
        sim.add_tick_hook(lambda now: seen.append(("plain", now)))
        sim.add_tick_hook(lambda now: None,
                          bulk=lambda times: seen.append(("bulk", times)))
        times = range(us(2), us(5), us(1))

        def proc():
            yield us(1)
            sim.replay_advances(times)
            yield us(5)

        sim.process(proc())
        sim.run()
        assert seen == [("plain", us(1)), ("plain", us(2)), ("plain", us(3)),
                        ("plain", us(4)), ("bulk", times), ("plain", us(6))]

    @pytest.mark.parametrize("times", [
        range(us(4), us(2), -us(1)),    # decreasing
        range(us(2), us(1), -us(1)),    # one time, but a negative step
    ])
    def test_a_non_positive_step_range_raises(self, times):
        sim = Simulator()
        sim.add_tick_hook(lambda now: None)
        errors = []

        def proc():
            yield us(1)
            try:
                sim.replay_advances(times)
            except SimulationError as error:
                errors.append(error)

        sim.process(proc())
        sim.run()
        assert len(errors) == 1
        with pytest.raises(ValueError):  # a zero step cannot be built
            range(us(2), us(4), 0)
