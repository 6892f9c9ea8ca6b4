"""Per-layer simulated-time breakdown of a recorded trace.

``repro profile <experiment>`` answers the question the raw latency
tables cannot: *where inside the model does each microsecond go?* It
runs an experiment with a live :class:`~repro.obs.tracer.Tracer`, then
folds the recorded spans into

* a per-opcode latency table (count, mean, p50, p95, max) from the
  end-to-end ``command`` spans, and
* a per-layer attribution: for each command, the spans of one category
  ("queue", "controller", "nand", "buffer", "firmware", "host") are
  merged as an *interval union* before summing, so a read fanned out to
  eight dies in parallel counts its NAND wall time once, not eight
  times, and the device-level ``read.fanout`` span does not double the
  per-die ``read.page`` spans beneath it.

Spans with no command id (GC runs, background flushes) are reported in
a separate background table; they consume device time but belong to no
single command.

:func:`profile_experiment` runs the experiment through the execution
engine (:func:`repro.exec.execute_experiments`) with ``jobs=1`` and no
cache — the same per-point code as every other run, each point traced
into one tracer in plan order. This module deliberately avoids
importing ``repro.core``/``repro.exec`` at module scope (``repro.core``
imports device code that imports ``repro.obs``); both are resolved
lazily inside :func:`profile_experiment`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Optional

from .tracer import PH_COMPLETE, TraceEvent, Tracer

__all__ = [
    "LAYER_ORDER",
    "LayerBreakdown",
    "profile_experiment",
    "run_self_profile",
]

#: Layer categories in stack order (host-side first, media last).
LAYER_ORDER = ("host", "queue", "controller", "buffer", "nand", "firmware")


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    """Total length of the union of ``[start, end)`` intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _percentile(sorted_values: list[int], p: float) -> float:
    """Nearest-rank-with-interpolation percentile on a sorted list."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    rank = (p / 100.0) * (len(sorted_values) - 1)
    lo = int(rank)
    frac = rank - lo
    if lo + 1 >= len(sorted_values):
        return float(sorted_values[-1])
    return sorted_values[lo] * (1 - frac) + sorted_values[lo + 1] * frac


class LayerBreakdown:
    """Folds a tracer's spans into per-opcode and per-layer tables."""

    def __init__(self, events: list[TraceEvent]):
        #: opcode → sorted end-to-end command durations (ns)
        self.command_durations: dict[str, list[int]] = {}
        #: layer category → attributed ns (per-command interval union)
        self.layer_ns: dict[str, int] = {layer: 0 for layer in LAYER_ORDER}
        #: (cat, name) → [count, total ns] for spans with no command id
        self.background: dict[tuple[str, str], list[int]] = {}
        #: die track → busy ns (from "nand" spans)
        self.die_busy_ns: dict[str, int] = {}
        self.total_command_ns = 0
        self.zone_transitions = 0

        per_cmd: dict[tuple[int, str], list[tuple[int, int]]] = defaultdict(list)
        durations: dict[str, list[int]] = defaultdict(list)
        for event in events:
            if event.cat == "zone":
                self.zone_transitions += 1
                continue
            if event.ph != PH_COMPLETE:
                continue
            interval = (event.ts, event.ts + event.dur)
            if event.cat == "command":
                opcode = event.args.get("opcode", event.name)
                durations[opcode].append(event.dur)
                self.total_command_ns += event.dur
                continue
            if event.cat == "nand" and event.track.startswith("die"):
                self.die_busy_ns[event.track] = (
                    self.die_busy_ns.get(event.track, 0) + event.dur
                )
            cid = event.args.get("cid", 0)
            if cid and event.cat in self.layer_ns:
                per_cmd[(cid, event.cat)].append(interval)
            else:
                entry = self.background.setdefault((event.cat, event.name), [0, 0])
                entry[0] += 1
                entry[1] += event.dur
        for (_cid, cat), intervals in per_cmd.items():
            self.layer_ns[cat] += _union_ns(intervals)
        self.command_durations = {
            opcode: sorted(vals) for opcode, vals in durations.items()
        }

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "LayerBreakdown":
        return cls(tracer.events())

    @property
    def command_count(self) -> int:
        return sum(len(v) for v in self.command_durations.values())

    def layer_share(self, layer: str) -> float:
        """Attributed time in ``layer`` as a fraction of command time."""
        if self.total_command_ns == 0:
            return 0.0
        return self.layer_ns.get(layer, 0) / self.total_command_ns

    # -- rendering -------------------------------------------------------
    def table(self) -> str:
        lines: list[str] = []
        lines.append("per-opcode latency (simulated, from command spans)")
        lines.append(
            f"  {'opcode':<12} {'count':>8} {'mean_us':>10} {'p50_us':>10} "
            f"{'p95_us':>10} {'max_us':>10}"
        )
        for opcode in sorted(self.command_durations):
            vals = self.command_durations[opcode]
            mean = sum(vals) / len(vals)
            lines.append(
                f"  {opcode:<12} {len(vals):>8} {mean / 1e3:>10.2f} "
                f"{_percentile(vals, 50) / 1e3:>10.2f} "
                f"{_percentile(vals, 95) / 1e3:>10.2f} "
                f"{vals[-1] / 1e3:>10.2f}"
            )
        if not self.command_durations:
            lines.append("  (no command spans recorded)")
        lines.append("")
        lines.append(
            "per-layer attribution (interval union per command; "
            "share of total command time)"
        )
        lines.append(f"  {'layer':<12} {'time_ms':>10} {'share':>8}")
        for layer in LAYER_ORDER:
            ns = self.layer_ns[layer]
            lines.append(
                f"  {layer:<12} {ns / 1e6:>10.3f} "
                f"{100 * self.layer_share(layer):>7.1f}%"
            )
        lines.append(
            f"  {'(commands)':<12} {self.total_command_ns / 1e6:>10.3f} "
            f"{'100.0%':>8}"
        )
        if self.background:
            lines.append("")
            lines.append("background work (no owning command)")
            lines.append(f"  {'span':<28} {'count':>8} {'time_ms':>10}")
            for (cat, name), (count, ns) in sorted(
                self.background.items(), key=lambda kv: -kv[1][1]
            ):
                lines.append(
                    f"  {cat + '/' + name:<28} {count:>8} {ns / 1e6:>10.3f}"
                )
        if self.die_busy_ns:
            lines.append("")
            busiest = max(self.die_busy_ns.values())
            lines.append(
                f"die busy time ({len(self.die_busy_ns)} dies active, "
                f"busiest {busiest / 1e6:.3f} ms)"
            )
        if self.zone_transitions:
            lines.append(f"zone transitions observed: {self.zone_transitions}")
        return "\n".join(lines)


def profile_experiment(
    exp_id: str, config: Optional[Any] = None
) -> tuple[Tracer, LayerBreakdown, Any]:
    """Run one experiment under a fresh tracer; returns
    ``(tracer, breakdown, experiment_result)``."""
    # Lazy: repro.core imports the device stack which imports repro.obs.
    from dataclasses import replace

    from ..core.experiments.common import ExperimentConfig
    from ..exec import execute_experiments

    tracer = Tracer()
    results, _report = execute_experiments(
        [exp_id], replace(config or ExperimentConfig(), tracer=tracer), jobs=1
    )
    return tracer, LayerBreakdown.from_tracer(tracer), results[exp_id]


def run_self_profile() -> tuple[Tracer, LayerBreakdown]:
    """A built-in smoke workload: appends, reads, and a reset on a small
    device, traced end to end. Used by ``repro profile --self`` and CI."""
    from ..hostif.commands import Command, Opcode, ZoneAction
    from ..sim.engine import Simulator
    from ..zns.device import ZnsDevice
    from ..zns.profiles import zn540_small

    tracer = Tracer()
    sim = Simulator()
    device = ZnsDevice(sim, zn540_small(), tracer=tracer)
    nlb = device.namespace.lbas(16 * 1024)
    zone = device.zones.zones[0]
    for _ in range(32):
        sim.run(until=device.submit(
            Command(Opcode.APPEND, slba=zone.zslba, nlb=nlb)))
    for i in range(16):
        sim.run(until=device.submit(
            Command(Opcode.READ, slba=zone.zslba + i * nlb, nlb=nlb)))
    sim.run(until=device.submit(
        Command(Opcode.ZONE_MGMT, slba=zone.zslba, action=ZoneAction.RESET)))
    return tracer, LayerBreakdown.from_tracer(tracer)
