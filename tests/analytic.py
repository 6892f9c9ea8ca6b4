"""Closed-form performance models for the simulated device.

The characterization's mechanisms admit simple analytical predictions
(the modelling tradition the paper's §V-B surveys: bottleneck analysis,
black-box linear models, GC mean-field models). This module states them
explicitly so tests can cross-validate simulation against theory:

* per-op **IOPS caps** from controller service times,
* **QD scaling** of a closed-loop workload against a single bottleneck,
* the **device write limit** from geometry and NAND timing,
* the **read tail under a write flood** from the buffer backlog,
* **finish latency** from remaining capacity,
* **reset inflation** under concurrent I/O from firmware utilization,
* steady-state **write amplification** of greedy GC (mean-field
  approximation of Van Houdt [96] / Lange et al. [35]).
"""

from __future__ import annotations

import math

from repro.hostif.commands import Opcode
from repro.zns.profiles import DeviceProfile

__all__ = [
    "iops_cap",
    "qd1_latency_ns",
    "closed_loop_throughput",
    "device_write_limit_bps",
    "flood_read_tail_ns",
    "finish_latency_ns",
    "reset_inflation_factor",
    "greedy_gc_write_amplification",
]


def iops_cap(profile: DeviceProfile, opcode: Opcode, request_bytes: int,
             block_size: int = 4096) -> float:
    """Controller-bound operations/second for one command type.

    The controller front-end is a single server, so the cap is the
    reciprocal of its per-command service time (DESIGN.md §5): ~186 K/s
    for 4 KiB writes, ~132 K/s appends, ~424 K/s reads.
    """
    nlb = max(1, request_bytes // block_size)
    service = profile.cmd_service_ns(opcode, request_bytes, nlb, block_size)
    return 1e9 / service


def qd1_latency_ns(profile: DeviceProfile, opcode: Opcode, request_bytes: int,
                   block_size: int = 4096, stack_overhead_ns: int = 0) -> float:
    """Predicted QD1 latency of a write/append (the Fig. 2/3 quantities)."""
    nlb = max(1, request_bytes // block_size)
    service = profile.cmd_service_ns(opcode, request_bytes, nlb, block_size)
    if opcode is Opcode.READ:
        # controller + NAND sense + bus transfer of the payload.
        transfer = request_bytes * 1e9 / profile.channel_bandwidth
        return service + profile.nand.read_ns + transfer + stack_overhead_ns
    pipelined = profile.dma_ns(request_bytes) + profile.write_admit_ns
    if opcode is Opcode.APPEND:
        pipelined += profile.append_alloc_ns
    return service + pipelined + stack_overhead_ns


def closed_loop_throughput(qd: int, latency_ns: float, cap_ops: float) -> float:
    """Ops/s of a QD-limited closed loop against a single bottleneck.

    min(QD / latency, cap): the textbook saturation curve the Fig. 4
    series follow (appends: linear in QD until the 132 K/s cap at QD4).
    """
    if qd < 1 or latency_ns <= 0 or cap_ops <= 0:
        raise ValueError("qd >= 1, latency > 0, cap > 0 required")
    return min(qd * 1e9 / latency_ns, cap_ops)


def device_write_limit_bps(profile: DeviceProfile) -> float:
    """Sustained write bandwidth = aggregate NAND program bandwidth."""
    return profile.nand.program_bandwidth(profile.geometry)


def flood_read_tail_ns(profile: DeviceProfile) -> float:
    """Read tail under a full-rate write flood (Obs #11, ZNS side).

    A read queues FIFO behind the buffered program backlog at its die;
    with the buffer full, that backlog drains in
    buffer_bytes / program_bandwidth — 112 MiB / 1.13 GiB/s ≈ 99 ms,
    the paper's 98.04 ms.
    """
    return profile.write_buffer_bytes * 1e9 / device_write_limit_bps(profile)


def finish_latency_ns(profile: DeviceProfile, occupancy_fraction: float) -> float:
    """Fig. 5b: finish pads the unwritten capacity at the marking rate."""
    if not 0 <= occupancy_fraction <= 1:
        raise ValueError("occupancy_fraction must be in [0, 1]")
    remaining = round(profile.zone_cap_bytes * (1 - occupancy_fraction))
    return profile.finish_work_ns(remaining)


def reset_inflation_factor(profile: DeviceProfile, opcode: Opcode,
                           io_ops_per_second: float) -> float:
    """Fig. 7: reset elapsed-time inflation under concurrent I/O.

    Management work runs in the firmware engine's idle fraction: with
    I/O mapping-update utilization rho = rate x per-op-work, the reset
    stretches by 1 / (1 - rho) (work conservation).
    """
    rho = io_ops_per_second * profile.fw_io_ns(opcode) / 1e9
    if rho >= 1:
        raise ValueError(f"firmware engine over-saturated (rho={rho:.2f})")
    return 1.0 / (1.0 - rho)


def greedy_gc_write_amplification(utilization: float) -> float:
    """Mean-field WA of greedy GC under uniform random writes.

    Uses the classic implicit relation for the steady-state victim
    validity ``u``: with spare factor ``s = 1 - utilization``,
    ``u = -s · W(-(1/s)·e^(-1/s) · ... )`` — here solved numerically from
    the fill/validity balance  u = exp((u - 1) / (s + (1 - s) * u_bar))
    approximation; accurate to a few percent against simulation for the
    utilizations the experiments use (0.7–0.95).
    """
    if not 0 < utilization < 1:
        raise ValueError("utilization must be in (0, 1)")
    rho = utilization
    # Solve u = rho * (WA semantics): victim validity u satisfies
    # u / rho = exp(u - 1) ... use the standard Lambert-W form:
    # u = -rho * W(-(1/rho) * exp(-1/rho))  with W the principal branch.
    x = -(1.0 / rho) * math.exp(-1.0 / rho)
    w = _lambert_w(x)
    u = -rho * w  # wait-free closed form; u in (0, 1)
    if not 0 < u < 1:
        raise ArithmeticError(f"victim validity out of range: {u}")
    return 1.0 / (1.0 - u)


def _lambert_w(x: float, tolerance: float = 1e-12) -> float:
    """Principal-branch Lambert W via Newton iteration (x >= -1/e)."""
    if x < -1.0 / math.e:
        raise ValueError(f"W(x) undefined for x={x} < -1/e")
    w = 0.0 if x > -0.25 else -0.5
    for _ in range(100):
        ew = math.exp(w)
        step = (w * ew - x) / (ew * (w + 1) - (w + 2) * (w * ew - x) / (2 * w + 2))
        w -= step
        if abs(step) < tolerance:
            return w
    raise ArithmeticError(f"Lambert W failed to converge for x={x}")
