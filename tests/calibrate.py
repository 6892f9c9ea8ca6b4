"""Calibration regression: the paper's anchor numbers as executable checks.

``measure_anchors`` runs the quick subset of measurements that pin the
ZN540 profile down (QD1 latencies through each stack, transition costs,
occupancy endpoints) and compares them against the paper's published
values. The test suite runs this as a regression gate: any change to the
profile or the device mechanics that drifts an anchor by more than its
tolerance fails loudly.

The slow anchors (scaling plateaus, interference) are covered by the
benchmark harness; see EXPERIMENTS.md for the complete ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hostif.commands import Command, Opcode, ZoneAction
from repro.hostif.namespace import LBA_4K
from repro.sim.engine import Simulator
from repro.sim.rng import StreamFactory
from repro.stacks.iouring import IoUringStack
from repro.stacks.spdk import SpdkStack
from repro.workload.stats import LatencyStats
from repro.zns.device import ZnsDevice
from repro.zns.profiles import zn540

__all__ = ["Anchor", "AnchorResult", "PAPER_ANCHORS", "measure_anchors"]

KIB = 1024


@dataclass(frozen=True)
class Anchor:
    """One published number and the tolerance we hold ourselves to."""

    name: str
    paper_value: float
    unit: str
    tolerance: float  # relative
    source: str  # paper location


@dataclass
class AnchorResult:
    anchor: Anchor
    measured: float

    @property
    def ok(self) -> bool:
        return abs(self.measured - self.anchor.paper_value) <= (
            self.anchor.tolerance * self.anchor.paper_value
        )

    def __str__(self) -> str:
        mark = "ok " if self.ok else "OFF"
        return (
            f"[{mark}] {self.anchor.name}: paper {self.anchor.paper_value} "
            f"{self.anchor.unit}, measured {self.measured:.2f} "
            f"(±{self.anchor.tolerance * 100:.0f}%, {self.anchor.source})"
        )


PAPER_ANCHORS: tuple[Anchor, ...] = (
    Anchor("spdk write 4KiB QD1", 11.36, "us", 0.03, "§III-C Obs #2"),
    Anchor("spdk append 8KiB QD1", 14.02, "us", 0.03, "§III-C Obs #4"),
    Anchor("kernel none write 4KiB QD1", 12.62, "us", 0.03, "§III-C Obs #2"),
    Anchor("mq-deadline write 4KiB QD1", 14.47, "us", 0.03, "§III-C Obs #2"),
    Anchor("scheduler overhead", 1.85, "us", 0.06, "§III-C Obs #2"),
    Anchor("zone open", 9.56, "us", 0.12, "§III-E Obs #9"),
    Anchor("zone close", 11.01, "us", 0.12, "§III-E Obs #9"),
    Anchor("implicit-open write penalty", 2.02, "us", 0.25, "§III-E Obs #9"),
    Anchor("implicit-open append penalty", 2.83, "us", 0.25, "§III-E Obs #9"),
    Anchor("reset half-full zone", 11.60, "ms", 0.08, "§III-E Obs #10"),
    Anchor("reset full zone", 16.19, "ms", 0.08, "§III-E Obs #10"),
    Anchor("finish <0.1% zone", 907.51, "ms", 0.08, "§III-E Obs #10"),
    Anchor("finish ~100% zone", 3.07, "ms", 0.10, "§III-E Obs #10"),
)


class _Bench:
    """Minimal measurement rig over a fresh simulated ZN540."""

    def __init__(self, seed: int):
        self.sim = Simulator()
        self.device = ZnsDevice(
            self.sim, zn540(num_zones=16), lba_format=LBA_4K,
            streams=StreamFactory(seed),
        )

    def _run(self, event):
        return self.sim.run(until=event)

    def qd1_io_us(self, stack, opcode: Opcode, nbytes: int, reps: int = 24) -> float:
        zone = self.device.zones.zones[0]
        nlb = self.device.namespace.lbas(nbytes)
        stats = LatencyStats()
        for i in range(reps + 1):
            slba = zone.wp if opcode is Opcode.WRITE else zone.zslba
            cpl = self._run(stack.submit(Command(opcode, slba=slba, nlb=nlb)))
            assert cpl.ok, cpl.status
            if i > 0:  # drop the implicit-open first op
                stats.record(cpl.latency_ns)
        self._run(self.device.submit(
            Command(Opcode.ZONE_MGMT, slba=zone.zslba, action=ZoneAction.RESET)))
        return stats.mean_us

    def mgmt_us(self, zone_index: int, action: ZoneAction) -> float:
        zslba = self.device.zones.zones[zone_index].zslba
        cpl = self._run(self.device.submit(
            Command(Opcode.ZONE_MGMT, slba=zslba, action=action)))
        assert cpl.ok, cpl.status
        return cpl.latency_ns / 1e3

    def mgmt_at_occupancy_ms(self, action: ZoneAction, fraction: float,
                             reps: int = 10) -> float:
        zone = self.device.zones.zones[1]
        stats = LatencyStats()
        for _ in range(reps):
            nlb = round(zone.cap_lbas * fraction)
            if fraction >= 1.0:
                nlb = zone.cap_lbas if action is ZoneAction.RESET else zone.cap_lbas - 4
            elif fraction <= 0.0:
                nlb = 4  # one page: finish needs a non-empty zone
            assert self.device.force_fill(zone.index, nlb).ok
            cpl = self._run(self.device.submit(
                Command(Opcode.ZONE_MGMT, slba=zone.zslba, action=action)))
            assert cpl.ok, cpl.status
            stats.record(cpl.latency_ns)
            if action is not ZoneAction.RESET:
                self._run(self.device.submit(Command(
                    Opcode.ZONE_MGMT, slba=zone.zslba, action=ZoneAction.RESET)))
        return stats.mean_ns / 1e6

    def implicit_penalty_us(self, opcode: Opcode, reps: int = 24) -> float:
        zone = self.device.zones.zones[2]
        nlb = self.device.namespace.lbas(4 * KIB)
        first, later = LatencyStats(), LatencyStats()
        for _ in range(reps):
            slba = zone.wp if opcode is Opcode.WRITE else zone.zslba
            first.record(self._run(self.device.submit(
                Command(opcode, slba=slba, nlb=nlb))).latency_ns)
            slba = zone.wp if opcode is Opcode.WRITE else zone.zslba
            later.record(self._run(self.device.submit(
                Command(opcode, slba=slba, nlb=nlb))).latency_ns)
            self._run(self.device.submit(Command(
                Opcode.ZONE_MGMT, slba=zone.zslba, action=ZoneAction.RESET)))
        return (first.mean_ns - later.mean_ns) / 1e3


def measure_anchors(seed: int = 0x5EED) -> list[AnchorResult]:
    """Measure every quick anchor; returns paper-vs-measured results."""
    values: dict[str, float] = {}

    bench = _Bench(seed)
    values["spdk write 4KiB QD1"] = bench.qd1_io_us(
        SpdkStack(bench.device), Opcode.WRITE, 4 * KIB)
    bench = _Bench(seed)
    values["spdk append 8KiB QD1"] = bench.qd1_io_us(
        SpdkStack(bench.device), Opcode.APPEND, 8 * KIB)
    bench = _Bench(seed)
    values["kernel none write 4KiB QD1"] = bench.qd1_io_us(
        IoUringStack(bench.device, "none"), Opcode.WRITE, 4 * KIB)
    bench = _Bench(seed)
    values["mq-deadline write 4KiB QD1"] = bench.qd1_io_us(
        IoUringStack(bench.device, "mq-deadline"), Opcode.WRITE, 4 * KIB)
    values["scheduler overhead"] = (
        values["mq-deadline write 4KiB QD1"] - values["kernel none write 4KiB QD1"]
    )

    bench = _Bench(seed)
    values["zone open"] = bench.mgmt_us(0, ZoneAction.OPEN)
    bench.device.zones.zones[0].wp += 4  # pretend a write landed
    values["zone close"] = bench.mgmt_us(0, ZoneAction.CLOSE)
    values["implicit-open write penalty"] = bench.implicit_penalty_us(Opcode.WRITE)
    values["implicit-open append penalty"] = bench.implicit_penalty_us(Opcode.APPEND)
    values["reset half-full zone"] = bench.mgmt_at_occupancy_ms(ZoneAction.RESET, 0.5)
    values["reset full zone"] = bench.mgmt_at_occupancy_ms(ZoneAction.RESET, 1.0)
    values["finish <0.1% zone"] = bench.mgmt_at_occupancy_ms(ZoneAction.FINISH, 0.0)
    values["finish ~100% zone"] = bench.mgmt_at_occupancy_ms(ZoneAction.FINISH, 1.0)

    return [AnchorResult(anchor, values[anchor.name]) for anchor in PAPER_ANCHORS]
