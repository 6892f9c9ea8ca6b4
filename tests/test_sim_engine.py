"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    SimulationError,
    Simulator,
    ms,
    sec,
    us,
)


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
        sim = Simulator()

        def bad():
            yield 3

        proc = sim.process(bad())
        with pytest.raises(SimulationError, match="non-event"):
            sim.run()
        assert proc.triggered and not proc.ok

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
