"""§III-C Fig. 2: write/append latency vs storage stack × LBA format.

* **Fig. 2a** — request size equals the LBA-format block size (512 B or
  4 KiB): shows the format effect (Observation #1) and the stack effect
  (Observation #2).
* **Fig. 2b** — the best request sizes from Fig. 3 (4 KiB writes, 8 KiB
  appends) on both formats: shows write < append latency at equal
  conditions (Observation #4).

All points are single-threaded, synchronous (QD=1), as in the paper.
"""

from __future__ import annotations

from ...hostif.namespace import LBA_4K, LBA_512, LbaFormat
from ...workload.job import IoKind, JobSpec
from .common import (
    KIB,
    ExperimentConfig,
    build_device,
    measure_job,
    sweep_stacks,
)
from .points import ExperimentPlan

__all__ = ["FIG2A_PLAN", "FIG2B_PLAN"]

#: io_uring cannot issue appends (§III-A); the thread-pool backend wraps
#: the sync passthrough path and can, like SPDK.
_APPEND_STACKS = ("spdk", "thrpool")

#: JSON-able point params carry the LBA size in bytes.
_FORMATS = {LBA_512.block_size: LBA_512, LBA_4K.block_size: LBA_4K}


def _measure_point(
    config: ExperimentConfig,
    lba_format: LbaFormat,
    stack_name: str,
    op: str,
    request_bytes: int,
) -> float:
    """Mean QD1 latency in µs for one (format, stack, op, size) point."""
    sim, device = build_device(config, lba_format=lba_format)
    zone = device.zones.zones[0]
    job = JobSpec(
        op=op,
        block_size=request_bytes,
        runtime_ns=config.point_runtime_ns,
        ramp_ns=config.ramp_ns,
        iodepth=1,
        zones=[zone.index],
        seed=config.seed,
    )
    result = measure_job(device, stack_name, job)
    return result.latency.mean_us


def _combo_plan(config: ExperimentConfig) -> list:
    """(format, stack, op) grid shared by Fig. 2a and Fig. 2b."""
    return [
        {"lba_bytes": lba_format.block_size, "stack": stack_name, "op": op}
        for lba_format in (LBA_512, LBA_4K)
        for stack_name in sweep_stacks(config)
        for op in (IoKind.WRITE, IoKind.APPEND)
        if not (op == IoKind.APPEND and stack_name not in _APPEND_STACKS)
    ]


#: The best request sizes from Fig. 3 (used by Fig. 2b).
_BEST_SIZE = {IoKind.WRITE: 4 * KIB, IoKind.APPEND: 8 * KIB}


def _fig2a_describe(config: ExperimentConfig) -> dict:
    return {
        "title": "I/O latency of append/write, request size = LBA size (QD=1)",
        "columns": ["lba_format", "stack", "op", "request_bytes", "latency_us"],
        "notes": ["appends are SPDK-only: fio/io_uring cannot issue them (§III-A)"],
    }


def _fig2a_point(config: ExperimentConfig, params: dict) -> dict:
    lba_format = _FORMATS[params["lba_bytes"]]
    latency = _measure_point(
        config, lba_format, params["stack"], params["op"], lba_format.block_size
    )
    return {"rows": [{
        "lba_format": str(lba_format),
        "stack": params["stack"],
        "op": params["op"],
        "request_bytes": lba_format.block_size,
        "latency_us": latency,
    }]}


def _fig2b_describe(config: ExperimentConfig) -> dict:
    return {
        "title": "I/O latency at optimal request sizes (4 KiB write / 8 KiB append, QD=1)",
        "columns": ["lba_format", "stack", "op", "request_bytes", "latency_us"],
    }


def _fig2b_point(config: ExperimentConfig, params: dict) -> dict:
    lba_format = _FORMATS[params["lba_bytes"]]
    request_bytes = _BEST_SIZE[params["op"]]
    latency = _measure_point(
        config, lba_format, params["stack"], params["op"], request_bytes
    )
    return {"rows": [{
        "lba_format": str(lba_format),
        "stack": params["stack"],
        "op": params["op"],
        "request_bytes": request_bytes,
        "latency_us": latency,
    }]}


#: Latency with request size = LBA-format block size (Fig. 2a).
FIG2A_PLAN = ExperimentPlan("fig2a", _combo_plan, _fig2a_point, _fig2a_describe)
#: Latency at the best request sizes: 4 KiB write, 8 KiB append.
FIG2B_PLAN = ExperimentPlan("fig2b", _combo_plan, _fig2b_point, _fig2b_describe)
