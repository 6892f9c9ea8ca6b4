"""§IV fidelity harness: which observations can each emulator reproduce?

For every emulator latency model we probe the observation-relevant
quantities (QD1 latencies, scaling plateaus, transition costs,
interference) and compare them against the calibrated reference model
(standing in for the real ZN540, which it matches — see EXPERIMENTS.md).
An observation "reproduces" on an emulator when its quantities land
within tolerance of the reference, or — for ordering observations — when
the ordering matches.

Observations #1 (LBA format), #2 (stack overheads) and #11 (ZNS vs
conventional stability) are excluded, as in the paper: "they do not
represent essential behavior to emulate".
"""

from __future__ import annotations

from ..core.experiments.points import ExperimentPlan
from ..hostif.commands import Command, Opcode, ZoneAction
from ..sim.engine import ms
from ..stacks.iouring import IoUringStack
from ..stacks.spdk import SpdkStack
from ..workload.job import IoKind, JobSpec, Pattern
from ..workload.runner import JobRunner
from ..workload.stats import LatencyStats
from ..core.results import ExperimentResult
from .base import EmulatorModel
from .models import ALL_MODELS, THIS_WORK

__all__ = [
    "FIDELITY_PLAN",
    "PROBED_OBSERVATIONS",
    "probe_model",
]

KIB = 1024
PROBED_OBSERVATIONS = (3, 4, 5, 6, 7, 8, 9, 10, 12, 13)


# --------------------------------------------------------------------------
# probes: extract observation-relevant quantities from one model's device
# --------------------------------------------------------------------------

def _qd1_latency_us(model: EmulatorModel, op: Opcode, nbytes: int, reps: int = 20) -> float:
    sim, device = model.build()
    zone = device.zones.zones[0]
    nlb = device.namespace.lbas(nbytes)
    stats = LatencyStats()
    for i in range(reps + 1):
        if op is Opcode.WRITE:
            cmd = Command(op, slba=zone.wp, nlb=nlb)
        else:
            cmd = Command(op, slba=zone.zslba, nlb=nlb)
        completion = sim.run(until=device.submit(cmd))
        assert completion.ok, completion.status
        if i > 0:  # skip the implicit-open first op
            stats.record(completion.latency_ns)
    return stats.mean_us


def _run_job(model: EmulatorModel, job: JobSpec, stack: str = "spdk",
               prefill: bool = False) -> float:
    sim, device = model.build()
    if prefill:
        device.debug_prefill_buffer(zone_index=max(job.zones) + 1)
    if job.op == IoKind.READ:
        for z in job.zones:
            device.force_fill(z, device.zones.zones[z].cap_lbas)
    host = SpdkStack(device) if stack == "spdk" else IoUringStack(device, "mq-deadline")
    return JobRunner(device, host, job).run()


def _mgmt_latency_ms(model: EmulatorModel, action: ZoneAction, fill_fraction: float,
                     reps: int = 6) -> float:
    sim, device = model.build()
    stats = LatencyStats()
    zone = device.zones.zones[0]
    for _ in range(reps):
        nlb = round(zone.cap_lbas * fill_fraction)
        if nlb:
            assert device.force_fill(0, nlb).ok
        cpl = sim.run(until=device.submit(
            Command(Opcode.ZONE_MGMT, slba=zone.zslba, action=action)))
        assert cpl.ok, cpl.status
        stats.record(cpl.latency_ns)
        if action is not ZoneAction.RESET:
            sim.run(until=device.submit(
                Command(Opcode.ZONE_MGMT, slba=zone.zslba, action=ZoneAction.RESET)))
    return stats.mean_ns / 1e6


def _open_and_penalty_us(model: EmulatorModel) -> tuple[float, float]:
    sim, device = model.build()
    zone = device.zones.zones[0]
    open_cpl = sim.run(until=device.submit(
        Command(Opcode.ZONE_MGMT, slba=zone.zslba, action=ZoneAction.OPEN)))
    nlb = device.namespace.lbas(4 * KIB)
    zone2 = device.zones.zones[1]
    first = sim.run(until=device.submit(Command(Opcode.WRITE, slba=zone2.wp, nlb=nlb)))
    later = sim.run(until=device.submit(Command(Opcode.WRITE, slba=zone2.wp, nlb=nlb)))
    return open_cpl.latency_ns / 1e3, (first.latency_ns - later.latency_ns) / 1e3


def _reset_under_write_p95_ms(model: EmulatorModel, resets: int = 14) -> tuple[float, float, float]:
    """(isolated reset mean ms, loaded reset p95 ms, write drift fraction)."""
    sim, device = model.build()
    zone_pool = list(range(0, 4))
    isolated = LatencyStats()
    for i in range(resets):
        z = zone_pool[i % 4]
        device.force_fill(z, device.zones.zones[z].cap_lbas)
        cpl = sim.run(until=device.submit(Command(
            Opcode.ZONE_MGMT, slba=device.zones.zones[z].zslba, action=ZoneAction.RESET)))
        isolated.record(cpl.latency_ns)
    # Baseline write latency.
    wzone = device.zones.zones[8]
    nlb = device.namespace.lbas(4 * KIB)
    sim.run(until=device.submit(Command(Opcode.WRITE, slba=wzone.wp, nlb=nlb)))
    base = sim.run(until=device.submit(Command(Opcode.WRITE, slba=wzone.wp, nlb=nlb)))
    # Concurrent writer + reset sweep.
    stop = []

    def writer():
        stats = LatencyStats()
        while not stop:
            cpl = yield from device.issue(Command(Opcode.WRITE, slba=wzone.wp, nlb=nlb))
            if cpl.ok:
                stats.record(cpl.latency_ns)
        return stats

    writer_proc = sim.process(writer())
    loaded = LatencyStats()

    def sweeper():
        for i in range(resets):
            z = zone_pool[i % 4]
            device.force_fill(z, device.zones.zones[z].cap_lbas)
            cpl = yield from device.issue(Command(
                Opcode.ZONE_MGMT, slba=device.zones.zones[z].zslba,
                action=ZoneAction.RESET))
            loaded.record(cpl.latency_ns)

    sim.run(until=sim.process(sweeper()))
    stop.append(True)
    writer_stats = sim.run(until=writer_proc)
    drift = abs(writer_stats.mean_ns - base.latency_ns) / base.latency_ns
    return isolated.mean_ns / 1e6, loaded.percentile_ns(95) / 1e6, drift


def probe_model(model: EmulatorModel) -> dict:
    """All observation-relevant quantities for one latency model."""
    q: dict = {"name": model.name}
    # Obs 3/4: QD1 latencies across sizes and ops.
    q["lat_w4"] = _qd1_latency_us(model, Opcode.WRITE, 4 * KIB)
    q["lat_w32"] = _qd1_latency_us(model, Opcode.WRITE, 32 * KIB)
    q["lat_a4"] = _qd1_latency_us(model, Opcode.APPEND, 4 * KIB)
    q["lat_a8"] = _qd1_latency_us(model, Opcode.APPEND, 8 * KIB)
    # Obs 5/6/7: scaling plateaus (KIOPS).
    runtime = ms(4)
    # Merged intra-zone writes overdrive the flash drain rate: warm-start
    # the buffer so the probe sees the steady-state plateau.
    q["write_intra_qd8"] = _run_job(model, JobSpec(
        op=IoKind.WRITE, block_size=4 * KIB, runtime_ns=ms(12), ramp_ns=ms(2),
        iodepth=8, zones=[0]), stack="mq-deadline", prefill=True).kiops
    q["write_inter_8z"] = _run_job(model, JobSpec(
        op=IoKind.WRITE, block_size=4 * KIB, runtime_ns=runtime, numjobs=8,
        zones=list(range(8)), zone_per_thread=True)).kiops
    q["append_intra_qd4"] = _run_job(model, JobSpec(
        op=IoKind.APPEND, block_size=4 * KIB, runtime_ns=runtime, iodepth=4,
        zones=[0])).kiops
    q["append_inter_4z"] = _run_job(model, JobSpec(
        op=IoKind.APPEND, block_size=4 * KIB, runtime_ns=runtime, numjobs=4,
        zones=list(range(4)), zone_per_thread=True)).kiops
    q["read_intra_qd64"] = _run_job(model, JobSpec(
        op=IoKind.READ, block_size=4 * KIB, runtime_ns=runtime, iodepth=64,
        pattern=Pattern.RANDOM, zones=[0])).kiops
    # Obs 8: 8 KiB append bandwidth at concurrency 4 (steady state).
    q["append8k_qd4_mibs"] = _run_job(model, JobSpec(
        op=IoKind.APPEND, block_size=8 * KIB, runtime_ns=ms(40), ramp_ns=ms(8),
        iodepth=4, zones=[0]), prefill=True).bandwidth_mibs
    # Obs 9: transitions.
    q["open_us"], q["implicit_penalty_us"] = _open_and_penalty_us(model)
    # Obs 10: occupancy dependence.
    q["reset_empty_ms"] = _mgmt_latency_ms(model, ZoneAction.RESET, 0.0)
    q["reset_full_ms"] = _mgmt_latency_ms(model, ZoneAction.RESET, 1.0)
    q["finish_low_ms"] = _mgmt_latency_ms(model, ZoneAction.FINISH, 0.01)
    q["finish_high_ms"] = _mgmt_latency_ms(model, ZoneAction.FINISH, 0.99)
    # Obs 12/13: reset interference.
    q["reset_iso_ms"], q["reset_loaded_p95_ms"], q["write_drift"] = (
        _reset_under_write_p95_ms(model)
    )
    return q


# --------------------------------------------------------------------------
# verdicts: compare a model's quantities against the reference
# --------------------------------------------------------------------------

def _close(value: float, reference: float, tolerance: float) -> bool:
    if reference == 0:
        return value == 0
    return abs(value - reference) / abs(reference) <= tolerance


def _verdicts(q: dict, ref: dict) -> dict[int, bool]:
    v: dict[int, bool] = {}
    # 3: request size changes latency/throughput the way the device does.
    v[3] = _close(q["lat_w32"] / q["lat_w4"], ref["lat_w32"] / ref["lat_w4"], 0.25) and _close(
        q["lat_a8"] / q["lat_a4"], ref["lat_a8"] / ref["lat_a4"], 0.25
    )
    # 4: append slower than write by a device-like margin.
    v[4] = _close(q["lat_a4"] / q["lat_w4"], ref["lat_a4"] / ref["lat_w4"], 0.12)
    # 5: intra-zone beats inter-zone by the device-like ratio.
    v[5] = q["write_intra_qd8"] > q["write_inter_8z"] and _close(
        q["write_intra_qd8"] / q["write_inter_8z"],
        ref["write_intra_qd8"] / ref["write_inter_8z"], 0.3,
    )
    # 6: append plateau is scaling-strategy agnostic AND device-like.
    v[6] = _close(q["append_intra_qd4"], q["append_inter_4z"], 0.15) and _close(
        q["append_intra_qd4"], ref["append_intra_qd4"], 0.25
    )
    # 7: read > write > append peaks, at device-like magnitudes.
    v[7] = (
        q["read_intra_qd64"] > q["write_intra_qd8"] > q["append_intra_qd4"]
        and _close(q["read_intra_qd64"], ref["read_intra_qd64"], 0.3)
    )
    # 8: large requests reach the device bandwidth limit.
    v[8] = _close(q["append8k_qd4_mibs"], ref["append8k_qd4_mibs"], 0.2)
    # 9: open cost and implicit-open penalty are device-like.
    v[9] = _close(q["open_us"], ref["open_us"], 0.35) and _close(
        q["implicit_penalty_us"], ref["implicit_penalty_us"], 0.35
    )
    # 10: reset grows with occupancy; finish shrinks, both device-like.
    v[10] = (
        _close(q["reset_full_ms"] / max(q["reset_empty_ms"], 1e-9),
               ref["reset_full_ms"] / ref["reset_empty_ms"], 0.3)
        and q["finish_low_ms"] > 20 * q["finish_high_ms"]
    )
    # 12: I/O latency unaffected by resets AND resets realistically long.
    v[12] = q["write_drift"] < 0.08 and _close(q["reset_iso_ms"], ref["reset_iso_ms"], 0.4)
    # 13: concurrent writes inflate reset p95 (with realistic resets).
    v[13] = (
        _close(q["reset_iso_ms"], ref["reset_iso_ms"], 0.4)
        and q["reset_loaded_p95_ms"] > 1.3 * q["reset_iso_ms"]
    )
    return v


# --------------------------------------------------------------------------
# the §IV matrix as an ExperimentPlan (one point per latency model)
# --------------------------------------------------------------------------

def _plan_points(config) -> list:
    return [{"model": model.name} for model in ALL_MODELS]


def _run_point(config, params: dict) -> dict:
    """Probe one latency model; the probes are config-independent (the
    §IV matrix is a fixed-seed comparison, not a config sweep)."""
    model = {m.name: m for m in ALL_MODELS}[params["model"]]
    return {"quantities": probe_model(model)}


def _describe(config) -> dict:
    return {
        "experiment_id": "sec4",
        "title": "Emulator fidelity: which observations does each latency model reproduce?",
        "columns": ["observation"] + [m.name for m in ALL_MODELS],
        "notes": [
            "verdict = quantities within tolerance of the calibrated reference model",
            "paper §IV: FEMU reproduces none; NVMeVirt/ConfZNS miss append "
            "(#4-#6) and zone transitions (#9, #10, #12, #13)",
        ],
    }


def _fold(result: ExperimentResult, config, payloads: list) -> None:
    """Verdict rows + meta from per-model quantities (cross-point, so it
    always runs in the assembling process: the verdict dicts are keyed
    by *int* observation ids, which a JSON round-trip would stringify)."""
    quantities = {p["quantities"]["name"]: p["quantities"] for p in payloads}
    ref = quantities[THIS_WORK.name]
    verdicts = {}
    for model in ALL_MODELS:
        verdicts[model.name] = _verdicts(quantities[model.name], ref)
        result.meta[model.name] = quantities[model.name]
    for obs in PROBED_OBSERVATIONS:
        row = {"observation": f"#{obs}"}
        for model in ALL_MODELS:
            row[model.name] = "yes" if verdicts[model.name].get(obs) else "no"
        result.add_row(**row)
    result.meta["verdicts"] = verdicts


#: Registered as an *auxiliary* experiment ("sec4"): resolvable by the
#: execution engine (``repro run sec4``) without joining the default
#: ``repro run`` suite.
FIDELITY_PLAN = ExperimentPlan("sec4", _plan_points, _run_point, _describe,
                               fold=_fold)
