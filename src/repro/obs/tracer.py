"""Span-style command-lifecycle tracing in simulated nanoseconds.

The tracer is the observation half of the mechanistic model: every layer
of the simulated stack (host stack overhead, queue waits, controller
service, NAND die/bus occupancy, write-buffer admission, firmware
management work, GC) records *spans* — ``[start_ns, end_ns)`` intervals
on the integer simulated clock — tagged with a per-command id, so a
single measured latency can be decomposed into where simulated time was
actually spent (the blktrace/zns-tools tradition, applied to the model
instead of a real ZN540).

Design constraints:

* **Zero overhead when off.** Layers hold a :data:`NULL_TRACER` by
  default whose recording methods are no-ops; tracing never touches the
  RNG streams or the event heap, so a traced run and an untraced run
  produce *identical* simulation results (asserted by the test suite).
* **Deterministic.** Events carry only simulated time; exports sort by
  ``(ts, insertion order)`` so files are byte-stable across runs.
* **Tool-friendly.** Two export formats: JSON-lines (one event per
  line, nanosecond timestamps, trivially greppable) and the Chrome
  ``trace_event`` JSON format loadable in Perfetto / chrome://tracing
  (microsecond timestamps, per the format spec).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Any, Iterator, Optional

__all__ = [
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "resolve_tracer",
    "PH_COMPLETE",
    "PH_INSTANT",
    "PH_COUNTER",
    "PH_METADATA",
]

#: Chrome trace_event phase codes used by this tracer.
PH_COMPLETE = "X"  # a span with an explicit duration
PH_INSTANT = "i"   # a point-in-time marker
PH_COUNTER = "C"   # a sampled counter value
PH_METADATA = "M"  # process/thread naming (emitted on export only)


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One recorded event.

    ``ts``/``dur`` are integer simulated nanoseconds. ``track`` names
    the logical execution lane ("controller", "die3", "firmware", ...)
    and becomes the thread id in the Chrome export; ``args`` carries the
    structured payload (``cid`` ties layer spans to their command).
    """

    name: str
    cat: str
    ph: str
    ts: int
    dur: int = 0
    track: str = "main"
    args: dict[str, Any] = field(default_factory=dict)

    def to_json_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "name": self.name,
            "cat": self.cat,
            "ph": self.ph,
            "ts": self.ts,
            "track": self.track,
        }
        if self.ph == PH_COMPLETE:
            data["dur"] = self.dur
        if self.args:
            data["args"] = self.args
        return data


class Tracer:
    """Collects :class:`TraceEvent` records from an instrumented run.

    One tracer may observe several devices/simulators (the experiment
    drivers build a fresh device per measured point); each device calls
    :meth:`register_process` once and records events against the
    returned process id, which keeps the points separable in Perfetto.
    """

    enabled = True

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []
        self._pids: list[tuple[int, str]] = []   # (pid, label)
        self._event_pids: list[int] = []         # parallel to _events
        self._cmd_seq = 0
        self._cur_pid = 0

    # -- bookkeeping -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events())

    def events(self) -> list[TraceEvent]:
        """All events in monotonic ``(ts, insertion)`` order."""
        order = sorted(range(len(self._events)),
                       key=lambda i: (self._events[i].ts, i))
        return [self._events[i] for i in order]

    def register_process(self, label: str) -> int:
        """Declare a new process group (one per device); returns its pid.

        Subsequent events record under the most recently registered pid,
        matching how experiment drivers build and run one device at a
        time.
        """
        pid = len(self._pids) + 1
        self._pids.append((pid, label))
        self._cur_pid = pid
        return pid

    def begin_command(self, opcode: str) -> int:
        """Allocate the next command id (ties layer spans to a command)."""
        self._cmd_seq += 1
        return self._cmd_seq

    @property
    def commands_traced(self) -> int:
        return self._cmd_seq

    # -- recording -------------------------------------------------------
    def span(self, cat: str, name: str, start_ns: int, end_ns: int,
             track: str = "main", **args: Any) -> None:
        """Record a completed span ``[start_ns, end_ns)``."""
        if end_ns < start_ns:
            raise ValueError(f"span {name!r} ends before it starts "
                             f"({start_ns}..{end_ns})")
        self._events.append(TraceEvent(name=name, cat=cat, ph=PH_COMPLETE,
                                       ts=start_ns, dur=end_ns - start_ns,
                                       track=track, args=args))
        self._event_pids.append(self._cur_pid)

    def instant(self, cat: str, name: str, ts_ns: int,
                track: str = "main", **args: Any) -> None:
        """Record a point event (zone transition, GC wakeup, ...)."""
        self._events.append(TraceEvent(name=name, cat=cat, ph=PH_INSTANT,
                                       ts=ts_ns, track=track, args=args))
        self._event_pids.append(self._cur_pid)

    def counter(self, name: str, ts_ns: int, value: float,
                track: str = "counters") -> None:
        """Record a sampled counter value (queue depth, buffer fill, ...)."""
        self._events.append(TraceEvent(name=name, cat="counter", ph=PH_COUNTER,
                                       ts=ts_ns, track=track,
                                       args={"value": value}))
        self._event_pids.append(self._cur_pid)

    # -- export ----------------------------------------------------------
    def write_jsonl(self, path_or_file) -> int:
        """Write events as JSON-lines (ns timestamps); returns the count."""
        events = self.events()
        if hasattr(path_or_file, "write"):
            self._write_jsonl(path_or_file, events)
        else:
            with open(path_or_file, "w") as handle:
                self._write_jsonl(handle, events)
        return len(events)

    @staticmethod
    def _write_jsonl(handle: IO[str], events: list[TraceEvent]) -> None:
        for event in events:
            handle.write(json.dumps(event.to_json_dict(), sort_keys=True))
            handle.write("\n")

    def to_chrome_trace(self) -> dict[str, Any]:
        """The Chrome ``trace_event`` JSON object (Perfetto-loadable).

        Timestamps convert from simulated ns to the format's µs unit;
        integer-ns precision is preserved as fractional µs. Track names
        map to stable small thread ids with ``thread_name`` metadata.
        """
        trace_events: list[dict[str, Any]] = []
        for pid, label in (self._pids or [(1, "sim")]):
            trace_events.append({
                "name": "process_name", "ph": PH_METADATA, "pid": pid,
                "tid": 0, "args": {"name": label},
            })
        tids: dict[tuple[int, str], int] = {}
        order = sorted(range(len(self._events)),
                       key=lambda i: (self._events[i].ts, i))
        for i in order:
            event = self._events[i]
            pid = self._event_pids[i] or 1
            key = (pid, event.track)
            tid = tids.get(key)
            if tid is None:
                tid = len([k for k in tids if k[0] == pid]) + 1
                tids[key] = tid
                trace_events.append({
                    "name": "thread_name", "ph": PH_METADATA, "pid": pid,
                    "tid": tid, "args": {"name": event.track},
                })
            entry: dict[str, Any] = {
                "name": event.name,
                "cat": event.cat,
                "ph": event.ph,
                "ts": event.ts / 1_000,
                "pid": pid,
                "tid": tid,
            }
            if event.ph == PH_COMPLETE:
                entry["dur"] = event.dur / 1_000
            if event.ph == PH_INSTANT:
                entry["s"] = "t"  # thread-scoped instant
            if event.ph == PH_COUNTER:
                entry["args"] = {event.name: event.args.get("value", 0)}
            elif event.args:
                entry["args"] = event.args
            trace_events.append(entry)
        return {"traceEvents": trace_events, "displayTimeUnit": "ns"}

    def write_chrome_trace(self, path_or_file) -> int:
        """Write the Perfetto/chrome://tracing file; returns event count."""
        payload = self.to_chrome_trace()
        if hasattr(path_or_file, "write"):
            json.dump(payload, path_or_file)
        else:
            with open(path_or_file, "w") as handle:
                json.dump(payload, handle)
        return len(payload["traceEvents"])


class NullTracer(Tracer):
    """The disabled tracer: every recording method is a no-op.

    Injected by default everywhere, so untraced runs pay only an
    attribute load + no-op call on the paths that record — and, because
    tracing never touches simulation state, results are identical either
    way.
    """

    enabled = False

    def register_process(self, label: str) -> int:
        return 0

    def begin_command(self, opcode: str) -> int:
        return 0

    def span(self, cat: str, name: str, start_ns: int, end_ns: int,
             track: str = "main", **args: Any) -> None:
        pass

    def instant(self, cat: str, name: str, ts_ns: int,
                track: str = "main", **args: Any) -> None:
        pass

    def counter(self, name: str, ts_ns: int, value: float,
                track: str = "counters") -> None:
        pass


#: Shared do-nothing tracer instance (safe: it keeps no state).
NULL_TRACER = NullTracer()


def resolve_tracer(tracer: Optional[Tracer]) -> Tracer:
    """``None`` → the shared :data:`NULL_TRACER` (the common default)."""
    return NULL_TRACER if tracer is None else tracer
