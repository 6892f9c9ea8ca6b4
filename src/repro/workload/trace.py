"""Trace-driven workloads: record, save, load, and replay I/O traces.

The SSD-modelling literature the paper surveys (§V-B) validates models
against *trace-based workloads*; this module gives the simulated devices
the same capability:

* :class:`TraceRecord` — one timestamped command,
* :class:`Trace` — an ordered collection with CSV (de)serialization and
  a synthetic generator for common shapes,
* :class:`TraceReplayer` — open-loop replay: each record is submitted at
  its recorded timestamp (late arrivals submit immediately), measuring
  per-record latency and on-time statistics.

Replay is open-loop (arrival-driven) in contrast to the closed-loop
:class:`repro.workload.runner.JobRunner`, making it the right tool for
studying latency under a *fixed* offered load.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from ..hostif.commands import Command, Opcode
from ..sim.engine import NS_PER_S, Event, Simulator
from .stats import LatencyStats

__all__ = ["TraceRecord", "Trace", "TraceReplayer", "synthetic_trace"]

_OPCODES = {op.value: op for op in Opcode}


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry: submit ``opcode`` at ``timestamp_ns``."""

    timestamp_ns: int
    opcode: Opcode
    slba: int
    nlb: int

    def __post_init__(self) -> None:
        if self.timestamp_ns < 0:
            raise ValueError(f"negative timestamp {self.timestamp_ns}")
        if self.opcode not in (Opcode.READ, Opcode.WRITE, Opcode.APPEND):
            raise ValueError(f"traces carry I/O commands only, not {self.opcode}")
        if self.nlb <= 0 or self.slba < 0:
            raise ValueError("invalid slba/nlb")

    def to_command(self) -> Command:
        return Command(self.opcode, slba=self.slba, nlb=self.nlb)


class Trace:
    """A time-ordered sequence of trace records."""

    def __init__(self, records: Iterable[TraceRecord] = ()):
        self.records = sorted(records, key=lambda r: r.timestamp_ns)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def duration_ns(self) -> int:
        return self.records[-1].timestamp_ns if self.records else 0

    def offered_iops(self) -> float:
        """Mean offered arrival rate over the trace duration."""
        if len(self.records) < 2 or self.duration_ns == 0:
            return 0.0
        return len(self.records) * NS_PER_S / self.duration_ns

    # -- CSV (de)serialization ------------------------------------------------
    CSV_HEADER = ("timestamp_ns", "opcode", "slba", "nlb")

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(self.CSV_HEADER)
        for r in self.records:
            writer.writerow((r.timestamp_ns, r.opcode.value, r.slba, r.nlb))
        return out.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "Trace":
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header is None or tuple(header) != cls.CSV_HEADER:
            raise ValueError(f"bad trace header {header!r}; want {cls.CSV_HEADER}")
        records = []
        for row in reader:
            if not row:
                continue
            timestamp, opcode, slba, nlb = row
            if opcode not in _OPCODES:
                raise ValueError(f"unknown opcode {opcode!r} in trace")
            records.append(TraceRecord(int(timestamp), _OPCODES[opcode],
                                       int(slba), int(nlb)))
        return cls(records)

    def save(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_csv())

    @classmethod
    def load(cls, path) -> "Trace":
        with open(path) as handle:
            return cls.from_csv(handle.read())


def synthetic_trace(
    duration_ns: int,
    iops: float,
    opcode: Opcode = Opcode.READ,
    nlb: int = 1,
    address_range: tuple[int, int] = (0, 1 << 20),
    pattern: str = "random",
    seed: int = 1234,
    arrival: str = "poisson",
) -> Trace:
    """Generate a synthetic trace (Poisson or uniform arrivals)."""
    if duration_ns <= 0 or iops <= 0:
        raise ValueError("duration and iops must be positive")
    if pattern not in ("random", "seq"):
        raise ValueError(f"pattern must be random|seq, got {pattern!r}")
    if arrival not in ("poisson", "uniform"):
        raise ValueError(f"arrival must be poisson|uniform, got {arrival!r}")
    rng = np.random.default_rng(seed)
    count = max(1, round(iops * duration_ns / NS_PER_S))
    if arrival == "poisson":
        gaps = rng.exponential(NS_PER_S / iops, count)
        stamps = np.cumsum(gaps).astype(np.int64)
        stamps = stamps[stamps < duration_ns]
        if len(stamps) == 0:
            stamps = np.asarray([0], dtype=np.int64)
    else:
        stamps = np.linspace(0, duration_ns, count, endpoint=False).astype(np.int64)
    start, end = address_range
    slots = (end - start) // nlb
    if slots <= 0:
        raise ValueError("address range smaller than one request")
    records = []
    cursor = 0
    for stamp in stamps:
        if pattern == "random":
            slba = start + int(rng.integers(0, slots)) * nlb
        else:
            slba = start + (cursor % slots) * nlb
            cursor += 1
        records.append(TraceRecord(int(stamp), opcode, slba, nlb))
    return Trace(records)


class TraceReplayer:
    """Open-loop replay of a trace against a stack/device."""

    def __init__(self, stack, trace: Trace, max_outstanding: int = 1024):
        if max_outstanding < 1:
            raise ValueError("max_outstanding must be >= 1")
        self.stack = stack
        self.sim: Simulator = stack.sim
        self.trace = trace
        self.max_outstanding = max_outstanding
        self.latency = LatencyStats()
        self.completed = 0
        self.errors = 0
        self.late_submissions = 0

    def start(self) -> Event:
        return self.sim.process(self._run(), name="trace-replay")

    def run(self) -> "TraceReplayer":
        self.sim.run(until=self.start())
        return self

    def _run(self):
        start = self.sim.now
        inflight: list = []
        for record in self.trace:
            due = start + record.timestamp_ns
            if self.sim.now < due:
                yield due - self.sim.now
            elif self.sim.now > due:
                self.late_submissions += 1
            inflight = [e for e in inflight if not e.processed]
            while len(inflight) >= self.max_outstanding:
                yield self.sim.any_of(inflight)
                inflight = [e for e in inflight if not e.processed]
            event = self.stack.submit(record.to_command())
            event.add_callback(self._on_complete)
            inflight.append(event)
        if inflight:
            yield self.sim.all_of(inflight)

    def _on_complete(self, event) -> None:
        completion = event.value
        if completion.ok:
            self.completed += 1
            self.latency.record(completion.latency_ns)
        else:
            self.errors += 1
