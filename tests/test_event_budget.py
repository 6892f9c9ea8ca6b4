"""Events-per-command guard on the ZNS write path.

One short fig3-style point: 16 KiB SPDK writes at QD1 on a device whose
write buffer is prefilled, so page flushes run behind every command.
The command count is pinned (the events removed on the flush path must
not change what the simulation does), and the dispatched events per
completed command must stay at or below the bound measured when those
events went (DESIGN.md §15.5). A change that adds an event per page or
per command back moves the ratio by about 1 and fails here.

On the conventional device a page flush is a generator-free record and
a GC victim counts its copies down (DESIGN.md §18.1): an urgent-GC write
flood builds no process per flush or per copy, and its copies queue at
most two dispatches per victim.

A zone finish sleeps through the chunk boundaries of its firmware work
that nothing else can reach (DESIGN.md §11), so a fig5b point, which
runs one finish at a time, dispatches a handful of events per finish
instead of one per chunk.

Processes sleep by yielding an ``int`` delay, so the same point builds
no ``Timeout`` at all, and no code under ``src/repro`` sleeps the other
way, by yielding a ``Timeout`` it builds in the yield expression
(DESIGN.md §15.6). Nor does any wait on a command by yielding the event
of a ``submit`` call: a process runs the ``issue`` generator instead
(DESIGN.md §11). Page operations are records served by the dies and
buses, so the point builds fewer processes than it completes commands.
"""

import ast
from collections import Counter, deque
from pathlib import Path

from repro.conv.device import PRIO_GC_URGENT
from repro.core.experiments.common import (
    KIB,
    ExperimentConfig,
    build_conv_device,
    build_device,
    measure_job,
)
from repro.core.experiments.state_machine import FIG5B_PLAN
from repro.sim.engine import Process, Timeout, events_total, ms
from repro.workload.job import IoKind, JobSpec, Pattern
from repro.zns.device import ZnsDevice

from .test_conv_device import conv_profile

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Commands the point completes; equal before and after the event diet.
COMMANDS = 691
#: Page programs the point completes.
PAGE_PROGRAMS = 704
#: Dispatched events per completed command: 37.37 before the event diet,
#: 35.33 after it, 31.33 once commands run inside the waiting process,
#: 20.01 once dies and buses serve page-operation records.
EVENTS_PER_COMMAND_BOUND = 20.02
#: Dispatched events per finish of a fig5b point at the lowest occupancy
#: (the longest finishes): 1,091 (52,381 for 48 finishes) with a wake
#: per firmware chunk, 4.83 once quiet chunk boundaries are slept through.
EVENTS_PER_FINISH_BOUND = 10

#: The conventional flood: commands, GC page copies and page programs,
#: equal before and after flushes became records and copies a countdown.
CONV_COMMANDS = 347
CONV_GC_COPIES = 287
CONV_PAGE_PROGRAMS = 438
#: Processes the flood builds besides its GC victims: one per slot.
CONV_OTHER_PROCESSES = 8
#: Dispatched events per completed command: 18.98 with a process per page
#: flush and an Event per GC copy, 18.04 with neither.
CONV_EVENTS_PER_COMMAND_BOUND = 18.05


def test_zns_write_point_events_per_command(monkeypatch):
    timeouts = []
    processes = []
    build_timeout = Timeout.__init__
    build_process = Process.__init__

    def spy(self, *args, **kwargs):
        timeouts.append(args)
        build_timeout(self, *args, **kwargs)

    def process_spy(self, *args, **kwargs):
        processes.append(args)
        build_process(self, *args, **kwargs)

    monkeypatch.setattr(Timeout, "__init__", spy)
    monkeypatch.setattr(Process, "__init__", process_spy)
    config = ExperimentConfig()
    sim, device = build_device(config)
    device.debug_prefill_buffer(zone_index=3)
    job = JobSpec(op=IoKind.WRITE, block_size=16 * KIB, runtime_ns=ms(10),
                  ramp_ns=ms(1), zones=[0, 1, 2, 3], seed=config.seed)
    before = events_total()
    measure_job(device, "spdk", job)
    events = events_total() - before
    commands = (sum(device.counters.completed.values())
                + sum(device.counters.errors.values()))
    assert commands == COMMANDS
    assert device.backend.counters.pages_programmed == PAGE_PROGRAMS
    assert events / commands <= EVENTS_PER_COMMAND_BOUND, (
        f"{events} events for {commands} commands "
        f"({events / commands:.2f} per command)"
    )
    assert timeouts == []
    # Page operations are records queued at die and bus servers, not
    # processes.
    assert len(processes) < commands, f"{len(processes)} processes"


class _CensusDeque(deque):
    """A ready deque that counts what is queued on it, by class name."""

    def __init__(self, entries):
        super().__init__(entries)
        self.queued = Counter()

    def append(self, entry):
        self.queued[type(entry).__name__] += 1
        super().append(entry)


def test_conv_gc_flood_builds_no_process_per_flush_or_copy(monkeypatch):
    """16 KiB random writes at QD8 for 40 ms on a 95%-full device with
    urgent GC. The device neither observes nor injects faults, so the
    only zero Timeouts queued are those of last copies; with each
    victim's countdown event that is two copy-completion dispatches per
    victim."""
    processes = []
    build_process = Process.__init__

    def process_spy(self, sim, generator, *args, **kwargs):
        processes.append(generator.__name__)
        build_process(self, sim, generator, *args, **kwargs)

    config = ExperimentConfig()
    sim, device = build_conv_device(config, conv_profile(), gc_priority=PRIO_GC_URGENT)
    device.precondition(0.95, steady_state_churn=1.0, seed=3)
    sim._ready = census = _CensusDeque(sim._ready)
    monkeypatch.setattr(Process, "__init__", process_spy)
    job = JobSpec(op=IoKind.WRITE, pattern=Pattern.RANDOM, block_size=16 * KIB,
                  iodepth=8, runtime_ns=ms(40), seed=config.seed,
                  address_range=(0, device.namespace.capacity_lbas))
    before = events_total()
    measure_job(device, "spdk", job)
    events = events_total() - before
    commands = (sum(device.counters.completed.values())
                + sum(device.counters.errors.values()))
    assert commands == CONV_COMMANDS
    assert device.metrics.counter("gc.pages_copied").value == CONV_GC_COPIES
    assert device.backend.counters.pages_programmed == CONV_PAGE_PROGRAMS
    victims = processes.count("_gc_victim")
    assert 0 < victims < CONV_GC_COPIES // 4
    assert len(processes) == victims + CONV_OTHER_PROCESSES, Counter(processes)
    assert census.queued["Timeout"] + census.queued["_Copies"] <= 2 * victims
    assert census.queued["AllOf"] <= 1  # the runner's wait on its slots
    assert events / commands <= CONV_EVENTS_PER_COMMAND_BOUND, (
        f"{events} events for {commands} commands "
        f"({events / commands:.2f} per command)"
    )


def test_fig5b_point_events_per_finish(monkeypatch):
    finishes = []
    exec_finish = ZnsDevice._exec_finish

    def spy(self, *args, **kwargs):
        finishes.append(args)
        return exec_finish(self, *args, **kwargs)

    monkeypatch.setattr(ZnsDevice, "_exec_finish", spy)
    before = events_total()
    FIG5B_PLAN.point(ExperimentConfig(), {"occupancy": "<0.1%"})
    events = events_total() - before
    assert len(finishes) == 48
    assert events / len(finishes) <= EVENTS_PER_FINISH_BOUND, (
        f"{events} events for {len(finishes)} finishes")


def _yielded_calls(method: str) -> list[str]:
    """Source lines under ``src/repro`` that ``yield <expr>.<method>(...)``."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            value = node.value if isinstance(node, ast.Yield) else None
            if (isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Attribute)
                    and value.func.attr == method):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    return offenders


def test_no_source_sleeps_on_a_timeout():
    """A sleep yields the delay; ``yield <expr>.timeout(...)`` builds an
    event only to sleep on it."""
    assert _yielded_calls("timeout") == []


def test_no_source_waits_on_a_submitted_process():
    """A process waits on a command with ``yield from <x>.issue(...)``;
    ``yield <x>.submit(...)`` builds a process only to wait on it."""
    assert _yielded_calls("submit") == []
