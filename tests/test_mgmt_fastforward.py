"""Zone-management work that sleeps through quiet chunk boundaries.

:meth:`ZnsDevice._mgmt_work` skips a chunk boundary when nothing else
can run before it (:meth:`Simulator.quiet_until`) and replays the
skipped clock advances to the tick hooks. ``tests/zns_reference.py``
keeps the loop that woke at every chunk. Each case here drives the same
commands through both devices and requires the same completions and
latencies, firmware debt, zone states, trace spans and telemetry
segments: a lone finish and a lone reset, I/O that books debt during a
finish, a ``run(until=...)`` deadline inside a finish followed by I/O, a
held timer due inside a finish, another entry due exactly on a chunk
boundary (queued before the boundary's wake or after it), and the
``power-cut`` fault preset cutting power during a finish.
"""

from __future__ import annotations

import pytest

from repro.faults import resolve
from repro.hostif import Command, Opcode, ZoneAction
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import TelemetryCollector
from repro.obs.tracer import Tracer
from repro.sim.engine import Simulator, events_total, us
from repro.zns.device import ZnsDevice
from repro.zns.profiles import zn540_small

from .zns_reference import ReferenceZnsDevice

#: Shorter than a finish chunk (~840 µs), longer than a reset chunk
#: (50 µs): some replayed advances close a window, some close none.
INTERVAL_NS = us(70)

#: Mapping debt an entry due on a chunk boundary books there.
BOUNDARY_DEBT_NS = us(30)


class Bench:
    """One device with a tracer, a registry and a telemetry sampler."""

    def __init__(self, cls, faults=None, interval_ns=INTERVAL_NS):
        self.sim = Simulator()
        self.tracer = Tracer()
        self.collector = TelemetryCollector(interval_ns)
        self.device = cls(self.sim, zn540_small(), tracer=self.tracer,
                          metrics=MetricsRegistry(), telemetry=self.collector,
                          faults=resolve(faults))
        self.submitted = []
        self.events = 0

    def submit(self, command):
        event = self.device.submit(command)
        self.submitted.append(event)
        return event

    def run(self, until=None):
        before = events_total()
        self.sim.run(until=until)
        self.events += events_total() - before

    def zone(self, index):
        return self.device.zones.zones[index]

    def write(self, zone_index, kib=64):
        zone = self.zone(zone_index)
        return self.submit(Command(Opcode.WRITE, slba=zone.wp,
                                   nlb=self.device.namespace.lbas(kib * 1024)))

    def mgmt(self, zone_index, action):
        return self.submit(Command(Opcode.ZONE_MGMT,
                                   slba=self.zone(zone_index).zslba,
                                   action=action))

    def fill(self, zone_index, writes=8):
        """Write into a zone one command at a time, then drain the flushes."""
        for _ in range(writes):
            self.run(until=self.write(zone_index))
        self.run()

    def writer(self, zone_index, count, gap_ns):
        """A host process writing ``count`` commands ``gap_ns`` apart."""
        def loop():
            for _ in range(count):
                yield self.write(zone_index)
                yield gap_ns
        return self.sim.process(loop())

    def outcome(self):
        self.run()
        return {
            "completions": [
                (event.value.command.opcode, event.value.command.action,
                 event.value.status, event.value.command.submitted_at,
                 event.value.completed_at, event.value.assigned_lba)
                for event in self.submitted
            ],
            "now": self.sim.now,
            "debt": self.device._fw_debt_ns,
            "zones": [(zone.state, zone.wp, zone.finished_pad_lbas)
                      for zone in self.device.zones.zones],
            "spans": self.tracer.events(),
            "telemetry": self.collector.drain(),
        }


def both(scenario, faults=None, interval_ns=INTERVAL_NS):
    """Run ``scenario(bench)`` on the reference and on the device; return
    both benches after checking that their outcomes are equal."""
    reference = Bench(ReferenceZnsDevice, faults, interval_ns)
    scenario(reference)
    device = Bench(ZnsDevice, faults, interval_ns)
    scenario(device)
    assert device.outcome() == reference.outcome()
    return reference, device


def finish_wakes():
    """The chunk boundaries of the lone finish in :func:`lone_finish`."""
    bench = Bench(ReferenceZnsDevice)
    bench.device.wakes = []
    lone_finish(bench)
    bench.run()
    return bench.device.wakes


def lone_finish(bench):
    bench.fill(0)
    bench.mgmt(0, ZoneAction.FINISH)


def test_lone_finish():
    reference, device = both(lone_finish)
    # The nine chunk wakes of the reference are one sleep here.
    assert device.events < reference.events - 5
    [span] = [event for event in device.tracer.events()
              if event.name == "finish.work"]
    assert span.args["io_debt_ns"] == 0


def test_lone_reset():
    def scenario(bench):
        bench.fill(0)
        bench.mgmt(0, ZoneAction.RESET)

    reference, device = both(scenario)
    assert device.events < reference.events - 100


def test_io_during_a_finish_books_debt():
    def scenario(bench):
        bench.fill(0)
        bench.mgmt(0, ZoneAction.FINISH)
        bench.writer(1, count=12, gap_ns=us(300))
        bench.writer(2, count=4, gap_ns=us(1100))

    _, device = both(scenario)
    [span] = [event for event in device.tracer.events()
              if event.name == "finish.work"]
    assert span.args["io_debt_ns"] > 0


@pytest.mark.parametrize("stop_after", [us(1), us(900), us(3000)])
def test_run_deadline_inside_a_finish_then_io(stop_after):
    def scenario(bench):
        bench.fill(0)
        finish = bench.mgmt(0, ZoneAction.FINISH)
        bench.run(until=bench.sim.now + stop_after)
        assert not finish.triggered
        for _ in range(3):
            bench.write(1)
            bench.write(2)
        bench.run(until=finish)

    _, device = both(scenario)
    [span] = [event for event in device.tracer.events()
              if event.name == "finish.work"]
    assert span.args["io_debt_ns"] > 0


def test_held_timer_due_inside_a_finish():
    def scenario(bench):
        bench.fill(0)
        timer = bench.sim.timeout(us(2500))
        bench.mgmt(0, ZoneAction.FINISH)

        def after_timer():
            yield timer
            yield bench.write(1)

        bench.sim.process(after_timer())

    both(scenario)


@pytest.mark.parametrize("queued", ["before-wake", "after-wake"])
@pytest.mark.parametrize("boundary", ["first", "middle", "penultimate"])
def test_entry_due_exactly_on_a_chunk_boundary(boundary, queued):
    """An entry at a chunk boundary books mapping debt there, standing
    for an I/O completion landing on it. Queued before the finish starts,
    it runs before the boundary's wake, which pays the debt at once;
    queued inside the chunk, it runs after the wake, and the next
    boundary pays it. On the penultimate boundary a debt the work misses
    is never paid."""
    wakes = finish_wakes()
    at = wakes[{"first": 0, "middle": len(wakes) // 2,
                "penultimate": len(wakes) - 2}[boundary]]

    def book(bench):
        if queued == "after-wake":
            yield at - 1 - bench.sim.now
        yield at - bench.sim.now
        bench.device._fw_debt_ns += BOUNDARY_DEBT_NS

    def scenario(bench):
        bench.fill(0)
        bench.sim.process(book(bench))
        bench.mgmt(0, ZoneAction.FINISH)

    _, device = both(scenario)
    [span] = [event for event in device.tracer.events()
              if event.name == "finish.work"]
    missed = boundary == "penultimate" and queued == "after-wake"
    assert span.args["io_debt_ns"] == (0 if missed else BOUNDARY_DEBT_NS)


def test_power_cut_during_a_finish():
    """The preset cuts power at 2 ms, inside the finish of an empty zone,
    while three writers keep the buffer past its PLP budget."""
    def scenario(bench):
        bench.run(until=us(100))
        bench.mgmt(0, ZoneAction.FINISH)
        for zone_index in (1, 2, 3):
            bench.writer(zone_index, count=30, gap_ns=0)

    _, device = both(scenario, faults="power-cut")
    assert device.device.faults.power_cuts.value == 1
    assert device.device.faults.bytes_lost.value > 0
    [span] = [event for event in device.tracer.events()
              if event.name == "finish.work"]
    assert span.ts < device.device.faults.plan.power_cut_at_ns \
        < span.ts + span.dur


#: The chunk of the bare work below.
CHUNK_NS = us(50)


@pytest.mark.parametrize("interval_ns", [us(20), CHUNK_NS, us(170)],
                         ids=["chunk-longer", "chunk-equal", "chunk-shorter"])
@pytest.mark.parametrize("work_ns", [9 * CHUNK_NS, 9 * CHUNK_NS + us(17),
                                     us(31)],
                         ids=["whole-chunks", "partial-chunk", "one-step"])
@pytest.mark.parametrize("horizon", ["infinite", "timer", "deadline"])
@pytest.mark.parametrize("start", [us(10), us(1700)],
                         ids=["unaligned", "on-window-ends"])
def test_bare_work_against_the_window(interval_ns, work_ns, horizon, start):
    """Work of ``work_ns`` in ``CHUNK_NS`` chunks on an idle device: with
    nothing else due (an infinite horizon), with a held timer due inside
    it, or under a ``run(until=...)`` deadline inside it. Started at
    1,700 µs, a multiple of every window here, some chunk ends fall
    exactly on window ends."""
    def scenario(bench):
        bench.run(until=start)

        def run_work():
            yield from bench.device._mgmt_work(work_ns, CHUNK_NS)
            return bench.sim.now

        work = bench.sim.process(run_work())
        if horizon == "timer":
            bench.sim.timeout(us(203))
        if horizon == "deadline":
            bench.run(until=start + us(250))
        bench.run(until=work)
        assert work.value - start == work_ns

    both(scenario, interval_ns=interval_ns)
