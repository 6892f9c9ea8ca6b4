"""§III-G Fig. 7: interference between reset and I/O operations.

Two concurrent threads, as in the paper's custom SPDK benchmark: one
issues back-to-back resets of 100 %-occupied zones in the first half of
the device; the other issues 4 KiB I/O (sequential writes or appends at
QD1, random reads) to the second half. We report the p95 reset latency
per concurrent-op configuration (Fig. 7 / Observation #13) and the I/O
latency with and without resets (Observation #12).

The paper does not state the read thread's queue depth; we use QD32,
matching the §III-F read configuration.
"""

from __future__ import annotations

from typing import Generator

from ...hostif.commands import Command, Opcode, ZoneAction
from ...workload.job import IoKind, JobSpec, Pattern
from ...workload.runner import JobRunner
from ...workload.stats import LatencyStats
from ...stacks.spdk import SpdkStack
from .common import KIB, ExperimentConfig, build_device
from .points import ExperimentPlan

__all__ = ["CONCURRENT_OPS", "FIG7_PLAN"]

CONCURRENT_OPS = ("none", "read", "write", "append")


def _sweep_with_refill(device, zone_pool, count: int, latency: LatencyStats) -> Generator:
    """Reset ``count`` fully-occupied zones, refilling pool zones between
    resets (the paper sweeps 400 distinct pre-filled zones; refilling a
    smaller pool is metadata-equivalent).

    Under fault injection a failed erase retires a zone (OFFLINE), and
    ``force_fill`` then refuses it: such a zone leaves the pool, and the
    sweep ends early if the pool runs empty. Only successful resets are
    recorded.
    """
    pool = list(zone_pool)
    for i in range(count):
        while pool:
            zone_index = pool[i % len(pool)]
            zone = device.zones.zones[zone_index]
            if device.force_fill(zone_index, zone.cap_lbas).ok:
                break
            pool.remove(zone_index)
        else:
            return
        completion = yield from device.issue(
            Command(Opcode.ZONE_MGMT, slba=zone.zslba, action=ZoneAction.RESET)
        )
        if completion.ok:
            latency.record(completion.latency_ns)


def _one_config(config: ExperimentConfig, concurrent_op: str):
    """Run one Fig. 7 configuration; returns (reset stats, io stats|None)."""
    sim, device = build_device(config)
    half = device.zones.num_zones // 2
    reset_pool = list(range(0, min(8, half)))

    reset_stats = LatencyStats()
    sweep = sim.process(
        _sweep_with_refill(device, reset_pool, config.interference_reset_zones, reset_stats)
    )

    io_result = None
    if concurrent_op != "none":
        io_zones = list(range(half, half + 8))
        if concurrent_op == "read":
            for z in io_zones:
                device.force_fill(z, device.zones.zones[z].cap_lbas)
            job = JobSpec(op=IoKind.READ, block_size=4 * KIB, iodepth=32,
                          pattern=Pattern.RANDOM, zones=io_zones,
                          runtime_ns=config.interference_runtime_ns,
                          seed=config.seed)
        else:
            job = JobSpec(op=concurrent_op, block_size=4 * KIB, iodepth=1,
                          zones=io_zones,
                          runtime_ns=config.interference_runtime_ns,
                          seed=config.seed)
        runner = JobRunner(device, SpdkStack(device), job)
        runner.start()
        io_result = runner.result
    sim.run(until=sweep)
    return reset_stats, io_result


def _fig7_describe(config: ExperimentConfig) -> dict:
    return {
        "title": "p95 reset latency vs concurrent operation (full zones)",
        "columns": ["concurrent_op", "reset_p95_ms", "reset_mean_ms",
                    "io_mean_latency_us", "resets"],
        "notes": ["read thread runs at QD32 (paper leaves the read QD unstated)"],
    }


def _fig7_plan(config: ExperimentConfig) -> list:
    return [{"concurrent_op": op} for op in CONCURRENT_OPS]


def _fig7_point(config: ExperimentConfig, params: dict) -> dict:
    op = params["concurrent_op"]
    reset_stats, io_result = _one_config(config, op)
    io_lat = (
        io_result.latency.mean_us
        if io_result is not None and io_result.latency.count
        else None
    )
    return {"rows": [{
        "concurrent_op": op,
        "reset_p95_ms": reset_stats.percentile_ns(95) / 1e6,
        "reset_mean_ms": reset_stats.mean_ns / 1e6,
        "io_mean_latency_us": io_lat if io_lat is not None else "-",
        "resets": reset_stats.count,
    }]}


#: p95 reset latency under concurrent I/O of each type.
FIG7_PLAN = ExperimentPlan("fig7", _fig7_plan, _fig7_point, _fig7_describe)
