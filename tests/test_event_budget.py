"""Events-per-command guard on the ZNS write path.

One short fig3-style point: 16 KiB SPDK writes at QD1 on a device whose
write buffer is prefilled, so page flushes run behind every command.
The command count is pinned (the events removed on the flush path must
not change what the simulation does), and the dispatched events per
completed command must stay at or below the bound measured when those
events went (DESIGN.md §15.5). A change that adds an event per page or
per command back moves the ratio by about 1 and fails here.

Processes sleep by yielding an ``int`` delay, so the same point builds
no ``Timeout`` at all, and no code under ``src/repro`` sleeps the other
way, by yielding a ``Timeout`` it builds in the yield expression
(DESIGN.md §15.6). Nor does any wait on a command by yielding the event
of a ``submit`` call: a process runs the ``issue`` generator instead
(DESIGN.md §11). Page operations are records served by the dies and
buses, so the point builds fewer processes than it completes commands.
"""

import ast
from pathlib import Path

from repro.core.experiments.common import (
    KIB,
    ExperimentConfig,
    build_device,
    measure_job,
)
from repro.sim.engine import Process, Timeout, events_total, ms
from repro.workload.job import IoKind, JobSpec

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Commands the point completes; equal before and after the event diet.
COMMANDS = 691
#: Page programs the point completes.
PAGE_PROGRAMS = 704
#: Dispatched events per completed command: 37.37 before the event diet,
#: 35.33 after it, 31.33 once commands run inside the waiting process,
#: 20.01 once dies and buses serve page-operation records.
EVENTS_PER_COMMAND_BOUND = 20.02


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
