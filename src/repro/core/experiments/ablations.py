"""Ablations of the model's design choices (DESIGN.md §5).

The paper calibrates one device; these ablations vary the mechanisms the
calibration pinned down and show each observation's *cause*:

* **write-buffer size** drives the ZNS read tail under write floods
  (Obs #11): the p95 tracks buffer_bytes / program_bandwidth,
* **append command cost** is the entire source of the write/append gap
  (Obs #4) and the 132 K append plateau (Obs #6): setting it equal to
  the write cost reproduces exactly the NVMeVirt failure mode,
* **GC die priority** on the conventional device: without urgency, GC
  starves behind the buffered write backlog and wedges the FTL,
* **flash geometry** (the ConfZNS-style design-space sweep): device
  bandwidth and read scaling follow channels × dies,
* **zone size** (small-zone vs large-zone ZNS, §V / Bae et al., Im et
  al.): small zones lift the open-zone ceiling so inter-zone append
  scaling extends past 14 zones, at the cost of per-zone bandwidth.
"""

from __future__ import annotations

import numpy as np

from ...device.core import PRIO_IO
from ...flash.geometry import FlashGeometry
from ...sim.engine import ms
from ...stacks.spdk import SpdkStack
from ...workload.job import IoKind, JobSpec, Pattern
from ...workload.runner import JobRunner
from ...zns.profiles import zn540
from .common import (
    KIB,
    MIB,
    ExperimentConfig,
    build_conv_device,
    build_device,
    measure_job,
)
from .io_interference import _writer_job, conv_experiment_profile
from .points import ExperimentPlan

__all__ = [
    "small_zone_profile",
    "ABLATION_BUFFER_PLAN",
    "ABLATION_APPEND_COST_PLAN",
    "ABLATION_GC_PRIORITY_PLAN",
    "ABLATION_GEOMETRY_PLAN",
    "ABLATION_ZONE_SIZE_PLAN",
]


def _buffer_describe(config: ExperimentConfig) -> dict:
    return {
        "title": "ZNS read p95 under write flood vs device write-buffer size",
        "columns": ["buffer_mib", "read_p95_ms", "predicted_ms"],
        "notes": [
            "prediction: buffer_bytes / program_bandwidth — the read waits "
            "out the buffered program backlog at its die",
        ],
    }


def _buffer_plan(config: ExperimentConfig) -> list:
    return [{"buffer_mib": buffer_mib} for buffer_mib in (28, 56, 112, 224)]


def _buffer_point(config: ExperimentConfig, params: dict) -> dict:
    buffer_mib = params["buffer_mib"]
    profile = zn540(num_zones=24, write_buffer_bytes=buffer_mib * MIB)
    sim, device = build_device(config, profile=profile)
    read_zones = list(range(16, 24))
    for z in read_zones:
        device.force_fill(z, device.zones.zones[z].cap_lbas)
    runtime = min(config.interference_runtime_ns, ms(900))
    writer = JobRunner(
        device, SpdkStack(device, enforce_write_serialization=False),
        _writer_job(list(range(8)), runtime, "zns", None, config.seed),
    )
    reader = JobRunner(device, SpdkStack(device), JobSpec(
        op=IoKind.READ, block_size=4 * KIB, pattern=Pattern.RANDOM,
        iodepth=4, zones=read_zones, runtime_ns=runtime,
        ramp_ns=runtime // 4, seed=config.seed + 1))
    events = [writer.start(), reader.start()]
    sim.run(until=sim.all_of(events))
    predicted = buffer_mib * MIB / device.backend.aggregate_program_bandwidth()
    return {"rows": [{
        "buffer_mib": buffer_mib,
        "read_p95_ms": reader.result.latency.percentile_ns(95) / 1e6,
        "predicted_ms": predicted * 1e3,
    }]}


#: ZNS read-tail p95 under a write flood vs write-buffer size.
ABLATION_BUFFER_PLAN = ExperimentPlan(
    "ablation-buffer", _buffer_plan, _buffer_point, _buffer_describe
)


def _append_cost_describe(config: ExperimentConfig) -> dict:
    return {
        "title": "write/append gap and append plateau vs append command cost",
        "columns": ["append_cmd_us", "append_qd1_us", "gap_pct", "plateau_kiops"],
        "notes": ["first row uses the write cost (the NVMeVirt assumption)"],
    }


def _append_cost_plan(config: ExperimentConfig) -> list:
    base = zn540()
    return [
        {"cmd_ns": cmd_ns}
        for cmd_ns in (base.cmd_write_ns, base.cmd_append_small_ns, 9_500)
    ]


def _append_cost_point(config: ExperimentConfig, params: dict) -> dict:
    cmd_ns = params["cmd_ns"]
    profile = zn540(
        num_zones=config.num_zones,
        cmd_append_small_ns=cmd_ns,
    )
    sim, device = build_device(config, profile=profile)
    job = JobSpec(op=IoKind.APPEND, block_size=4 * KIB,
                  runtime_ns=config.point_runtime_ns, ramp_ns=config.ramp_ns,
                  zones=[0], seed=config.seed)
    qd1 = measure_job(device, "spdk", job)
    sim2, device2 = build_device(config, profile=profile)
    job8 = JobSpec(op=IoKind.APPEND, block_size=4 * KIB,
                   runtime_ns=config.point_runtime_ns, ramp_ns=config.ramp_ns,
                   iodepth=8, zones=[0], seed=config.seed)
    plateau = measure_job(device2, "spdk", job8)
    sim3, device3 = build_device(config, profile=profile)
    wjob = JobSpec(op=IoKind.WRITE, block_size=4 * KIB,
                   runtime_ns=config.point_runtime_ns, ramp_ns=config.ramp_ns,
                   zones=[0], seed=config.seed)
    write_qd1 = measure_job(device3, "spdk", wjob)
    gap = (qd1.latency.mean_us - write_qd1.latency.mean_us) / qd1.latency.mean_us
    return {"rows": [{
        "append_cmd_us": cmd_ns / 1e3,
        "append_qd1_us": qd1.latency.mean_us,
        "gap_pct": gap * 100,
        "plateau_kiops": plateau.kiops,
    }]}


#: Obs #4/#6 sensitivity to the append controller command cost.
ABLATION_APPEND_COST_PLAN = ExperimentPlan(
    "ablation-append-cost", _append_cost_plan, _append_cost_point,
    _append_cost_describe,
)


def _gc_priority_describe(config: ExperimentConfig) -> dict:
    return {
        "title": "Conventional SSD under flood: GC die priority matters",
        "columns": ["gc_priority", "write_mean_mibs", "gc_pages_copied", "ftl_stalls"],
        "notes": [
            "at plain I/O priority GC queues behind the buffered write "
            "backlog, starves, and the FTL wedges at its block reserve",
        ],
    }


def _gc_priority_plan(config: ExperimentConfig) -> list:
    return [
        {"label": label, "priority": priority}
        for label, priority in (("urgent", -1), ("plain-io", PRIO_IO))
    ]


def _gc_priority_point(config: ExperimentConfig, params: dict) -> dict:
    label, priority = params["label"], params["priority"]
    sim, device = build_conv_device(
        config, conv_experiment_profile(), gc_priority=priority
    )
    device.precondition(0.92, steady_state_churn=1.0, seed=config.seed)
    runtime = min(config.interference_runtime_ns, ms(900))
    writer = JobRunner(
        device, SpdkStack(device, enforce_write_serialization=False),
        _writer_job((0, device.namespace.capacity_lbas), runtime, "conv",
                    None, config.seed),
    )
    sim.run(until=writer.start())
    values = writer.result.timeseries.bandwidth_values()[1:-1]
    stalled = device.ftl.free_block_count <= device._gc_reserve
    return {"rows": [{
        "gc_priority": label,
        "write_mean_mibs": float(np.mean(values)) if len(values) else 0.0,
        "gc_pages_copied": device.metrics.counter("gc.pages_copied").value,
        "ftl_stalls": "yes" if stalled else "no",
    }]}


#: Conventional GC at urgent vs plain I/O priority under a flood.
ABLATION_GC_PRIORITY_PLAN = ExperimentPlan(
    "ablation-gc-priority", _gc_priority_plan, _gc_priority_point,
    _gc_priority_describe,
)


def _geometry_describe(config: ExperimentConfig) -> dict:
    return {
        "title": "Device limits vs flash parallelism (channels x dies)",
        "columns": ["channels", "dies_per_channel", "write_bw_mibs", "read_qd32_kiops"],
    }


def _geometry_plan(config: ExperimentConfig) -> list:
    return [
        {"channels": channels, "dies": dies}
        for channels, dies in ((4, 2), (8, 2), (8, 4), (16, 4))
    ]


def _geometry_point(config: ExperimentConfig, params: dict) -> dict:
    channels, dies = params["channels"], params["dies"]
    geometry = FlashGeometry(
        channels=channels, dies_per_channel=dies, planes_per_die=2,
        blocks_per_plane=548, pages_per_block=512, page_size=16 * KIB,
    )
    profile = zn540(num_zones=config.num_zones, geometry=geometry)
    sim, device = build_device(config, profile=profile)
    device.debug_prefill_buffer(zone_index=1)
    wjob = JobSpec(op=IoKind.WRITE, block_size=16 * KIB,
                   runtime_ns=ms(40), ramp_ns=ms(10), zones=[0],
                   seed=config.seed)
    bw = measure_job(device, "spdk", wjob).bandwidth_mibs
    sim2, device2 = build_device(config, profile=profile)
    device2.force_fill(0, device2.zones.zones[0].cap_lbas)
    rjob = JobSpec(op=IoKind.READ, block_size=4 * KIB, iodepth=32,
                   pattern=Pattern.RANDOM, zones=[0],
                   runtime_ns=config.point_runtime_ns,
                   ramp_ns=config.ramp_ns, seed=config.seed)
    kiops = measure_job(device2, "spdk", rjob).kiops
    return {"rows": [{
        "channels": channels, "dies_per_channel": dies,
        "write_bw_mibs": bw, "read_qd32_kiops": kiops,
    }]}


#: ConfZNS-style design-space sweep: bandwidth/IOPS vs parallelism.
ABLATION_GEOMETRY_PLAN = ExperimentPlan(
    "ablation-geometry", _geometry_plan, _geometry_point, _geometry_describe
)


def small_zone_profile(**overrides):
    """A small-zone ZNS device (paper §V: Bae et al., Im et al.).

    96 MiB zones with a generous open/active budget — the design point
    that real devices take for many concurrently open zones. The
    simulated device still stripes each zone across every die.
    """
    base = zn540(
        name="small-zone ZNS (simulated)",
        zone_size_bytes=96 * MIB,
        zone_cap_bytes=96 * MIB,
        num_zones=256,
        max_open_zones=64,
        max_active_zones=64,
    )
    return base.scaled(**overrides) if overrides else base


def _zone_size_profile(label: str):
    if label == "small-zone":
        return small_zone_profile()
    return zn540(num_zones=64)


def _zone_size_describe(config: ExperimentConfig) -> dict:
    return {
        "title": "Inter-zone append scaling vs zone size (open-zone ceiling)",
        "columns": ["device", "zones", "kiops"],
        "notes": [
            "small zones lift the 14-open-zone ceiling (Im et al. [87]); "
            "the per-command append cap still binds at ~132 KIOPS",
        ],
    }


def _zone_size_plan(config: ExperimentConfig) -> list:
    return [
        {"device": label, "zones": zones}
        for label in ("large-zone (ZN540)", "small-zone")
        for zones in (1, 2, 4, 8, 14, 28)
    ]


def _zone_size_point(config: ExperimentConfig, params: dict) -> dict:
    label, zones = params["device"], params["zones"]
    profile = _zone_size_profile(label)
    if zones > profile.max_open_zones:
        return {"rows": [{
            "device": label, "zones": zones, "kiops": "exceeds-open-limit",
        }]}
    sim, device = build_device(config, profile=profile)
    job = JobSpec(op=IoKind.APPEND, block_size=4 * KIB,
                  runtime_ns=config.point_runtime_ns,
                  ramp_ns=config.ramp_ns, numjobs=zones,
                  zones=list(range(zones)), zone_per_thread=True,
                  seed=config.seed)
    job_result = measure_job(device, "spdk", job)
    return {"rows": [{"device": label, "zones": zones, "kiops": job_result.kiops}]}


#: Inter-zone append scaling: large-zone vs small-zone device.
ABLATION_ZONE_SIZE_PLAN = ExperimentPlan(
    "ablation-zone-size", _zone_size_plan, _zone_size_point, _zone_size_describe
)
