"""``fig8_aging``: wear-dependent lifetime — aging sweeps, interference
under faults, and the zone-management-cost ablation.

The paper characterizes a *fresh* ZN540; its lifetime story (§II,
DESIGN.md §17) is that NAND failure rates are not constants but
functions of accumulated wear — erase/program/read-disturb ladders
climb with per-block erase counts until the firmware retires the unit.
This experiment exercises the wear model end to end, in three parts:

* **Age sweep** — a fresh device is fast-forwarded through multi-"day"
  epochs of background churn (:meth:`DeviceCore.age`: deterministic wear
  replay on the dedicated ``aging`` RNG stream, no simulated time),
  then the same append+read workload is measured at each age. With a
  wear curve armed (``--faults wearout``), program/erase retries climb
  with the erase-count odometer and the measured p99s grow
  monotonically with age; with no faults armed ``age()`` is a no-op and
  every row is identical.
* **Interference under faults** — the Fig. 6 victim/antagonist story
  re-run on a pre-aged device under the ``read-disturb`` and
  ``wearout`` profiles, with per-tenant accounting: a victim tenant
  reads its own partition while a reclaim tenant burns through zones
  with real refill appends and trailing resets. The fold reports each
  profile's victim read-p99 inflation over the fresh fault-free
  baseline.
* **Zone-management-cost ablation** — the calibrated reset/finish
  firmware costs versus a hypothetical cheap-management device (the
  small-zone regime of Bae et al., PAPERS.md) on a reset-heavy append
  workload, folded as a latency ratio against the calibrated baseline.

Scale notes: all three parts run on the structurally shrunken ZN540
(:func:`~repro.zns.profiles.zn540_small`) with a deliberately small
write buffer, so flusher backpressure — and therefore wear-driven
program retries — lands on the measured append path instead of hiding
behind 112 MiB of capacitor-backed cache.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Generator

from ...hostif.commands import Command, Opcode
from ...sim.engine import Event, us
from ...sim.rng import BlockDraws
from ...tenancy import ResetStorm, Tenant, TenantScheduler
from ...workload.job import IoKind, JobSpec, Pattern
from ...workload.runner import JobRunner
from ...zns.profiles import zn540_small
from ...zns.spec import ZoneState
from ..results import ExperimentResult
from .common import KIB, MIB, ExperimentConfig, build_device, build_stack
from .points import ExperimentPlan

__all__ = [
    "FIG8_AGING_PLAN",
    "AGE_EPOCHS",
    "INTERFERENCE_PROFILES",
    "MGMT_VARIANTS",
]

#: Fast-forwarded ages (epochs of background churn) the sweep measures.
AGE_EPOCHS = (0, 2, 4, 8)
#: Fault profiles for the interference re-run; "none" is the fresh
#: fault-free baseline the fold normalizes against.
INTERFERENCE_PROFILES = ("none", "read-disturb", "wearout")
#: Zone-management cost variants for the ablation.
MGMT_VARIANTS = ("calibrated", "cheap-mgmt")

_NUM_ZONES = 32
#: Write/reclaim partition and pre-filled read partition (disjoint).
_WRITE_ZONES = list(range(0, 10))
_READ_ZONES = list(range(24, 32))
#: Small reclaim pool for the management ablation: the append workload
#: must wrap it several times inside the window so reset/finish cost
#: actually sits on the measured path.
_MGMT_ZONES = list(range(0, 4))
#: Epochs of pre-aging before the interference runs — enough churn that
#: the armed wear curves are past their knees but (at ~4.5 erases/epoch
#: mean) comfortably below the wearout retirement thresholds.
_PREAGE_EPOCHS = 6
#: Cost divisor for the cheap-management ablation variant.
_CHEAP_MGMT_FACTOR = 16


def _aging_profile(**overrides):
    """Shrunken ZN540 with a small write buffer (see module docstring)."""
    return zn540_small(
        num_zones=_NUM_ZONES,
        write_buffer_bytes=2 * MIB,
        **overrides,
    )


def _age_runtime_ns(config: ExperimentConfig) -> int:
    """Measured window per age/ablation point (longer than one default
    point: p99s need samples, and the buffer must fill to expose
    wear-driven flush retries)."""
    return 4 * config.point_runtime_ns


def _wear_columns(device) -> tuple[int, int]:
    """(max erase count, retired-zone census) for a row's wear columns."""
    injector = device.faults
    if injector is None:
        return 0, 0
    retired = sum(
        1 for zone in device.zones.zones
        if zone.state in (ZoneState.READ_ONLY, ZoneState.OFFLINE)
    )
    return injector.wear.max_erase_count(), retired


# --------------------------------------------------------------- age sweep
def _age_point(config: ExperimentConfig, params: dict) -> dict:
    epochs = params["epochs"]
    sim, device = build_device(
        config, profile=_aging_profile(), seed_salt=f"aging/{epochs}"
    )
    for z in _READ_ZONES:
        device.force_fill(z, device.zones.zones[z].cap_lbas)
    device.age(epochs)
    runtime = _age_runtime_ns(config)
    writer = JobRunner(
        device, build_stack(device, "spdk"),
        JobSpec(op=IoKind.APPEND, block_size=64 * KIB, iodepth=4,
                numjobs=2, zones=_WRITE_ZONES, reset_when_full=True,
                runtime_ns=runtime, seed=config.seed),
    )
    reader = JobRunner(
        device, build_stack(device, "spdk"),
        JobSpec(op=IoKind.READ, block_size=4 * KIB, pattern=Pattern.RANDOM,
                iodepth=8, zones=_READ_ZONES, runtime_ns=runtime,
                seed=config.seed + 1),
    )
    sim.run(until=sim.all_of([writer.start(), reader.start()]))
    wres, rres = writer.result, reader.result
    max_erases, retired = _wear_columns(device)
    return {"rows": [{
        "kind": "age",
        "label": f"epoch{epochs}",
        "epochs": epochs,
        "append_p50_us": round(wres.latency.percentile_us(50), 2),
        "append_p99_us": round(wres.latency.percentile_us(99), 2),
        "read_p50_us": round(rres.latency.percentile_us(50), 2),
        "read_p99_us": round(rres.latency.percentile_us(99), 2),
        "bandwidth_mibs": round(wres.bandwidth_mibs, 1),
        "resets": wres.resets,
        "errors": sum(wres.errors.values()) + sum(rres.errors.values()),
        "max_erase_count": max_erases,
        "zones_retired": retired,
    }], "series": [
        ["age-append-p99", [[epochs, round(wres.latency.percentile_us(99), 2)]]],
        ["age-read-p99", [[epochs, round(rres.latency.percentile_us(99), 2)]]],
    ]}


# ------------------------------------------------- interference under faults
class _TenantReader:
    """Victim serving loop: random 4 KiB reads over the tenant's own
    (pre-filled) partition at a fixed queue depth, with per-tenant
    latency/error accounting. Draws only from the tenant's private RNG
    sub-stream, so co-scheduling it cannot shift other tenants."""

    def __init__(self, tenant: Tenant, until_ns: int, iodepth: int = 8,
                 read_bytes: int = 4 * KIB):
        self.tenant = tenant
        self.sim = tenant.sim
        self.until_ns = until_ns
        self.iodepth = iodepth
        self.read_bytes = read_bytes

    def start(self) -> Event:
        return self.sim.all_of([
            self.sim.process(self._worker(BlockDraws(self.tenant.rng(f"read/{i}"))))
            for i in range(self.iodepth)
        ])

    def _worker(self, draws: BlockDraws) -> Generator:
        tenant = self.tenant
        device = tenant.device
        block = device.namespace.block_size
        nlb = max(1, self.read_bytes // block)
        zones = tenant.zones
        while self.sim.now < self.until_ns:
            zone = device.zones.zones[zones[draws.below(len(zones))]]
            span = max(1, zone.cap_lbas - nlb)
            slba = zone.zslba + draws.below(span)
            completion = yield from tenant.issue(
                Command(Opcode.READ, slba=slba, nlb=nlb))
            if completion.ok:
                tenant.record(completion, nlb * block)
            else:
                tenant.record_error(completion.status, slba)


def _interference_point(config: ExperimentConfig, params: dict) -> dict:
    profile = params["profile"]
    spec = None if profile == "none" else profile
    cfg = replace(config, faults=spec)
    sim, device = build_device(
        cfg, profile=_aging_profile(), seed_salt=f"interf/{profile}"
    )
    for z in _READ_ZONES:
        device.force_fill(z, device.zones.zones[z].cap_lbas)
    device.age(_PREAGE_EPOCHS)
    runtime = config.fleet_runtime_ns
    scheduler = TenantScheduler(device)
    victim = Tenant(device, "victim", zones=_READ_ZONES, index=0,
                    seed=config.seed)
    reclaim = Tenant(device, "reclaim", zones=_WRITE_ZONES, index=1,
                     seed=config.seed)
    scheduler.add_workload(victim, _TenantReader(victim, runtime),
                           kind="serve")
    scheduler.add_workload(
        reclaim,
        ResetStorm(reclaim, runtime, append_chunk=64 * KIB, pace_ns=us(20)),
        kind="reclaim",
    )
    rows = []
    max_erases, retired = None, None
    for result in scheduler.run():
        if max_erases is None:
            max_erases, retired = _wear_columns(device)
        rows.append({
            "kind": "interference",
            "label": profile,
            "tenant": result.tenant,
            "read_p50_us": round(result.p50_us, 2) if result.ops else "-",
            "read_p99_us": round(result.p99_us, 2) if result.ops else "-",
            "resets": result.resets,
            "reset_p95_ms": (
                round(result.reset_p95_ms, 2) if result.resets else "-"
            ),
            "errors": sum(result.errors.values()),
            "errors_by_owner": ",".join(
                f"{owner}:{count}"
                for owner, count in sorted(result.errors_by_owner.items())
            ) or "-",
            "max_erase_count": max_erases,
            "zones_retired": retired,
        })
    return {"rows": rows}


# ------------------------------------------------ zone-management ablation
def _mgmt_profile(variant: str):
    base = _aging_profile()
    if variant == "calibrated":
        return base
    return base.scaled(
        reset_base_ns=base.reset_base_ns // _CHEAP_MGMT_FACTOR,
        reset_span_ns=base.reset_span_ns // _CHEAP_MGMT_FACTOR,
        reset_pad_span_ns=base.reset_pad_span_ns // _CHEAP_MGMT_FACTOR,
        finish_floor_ns=base.finish_floor_ns // _CHEAP_MGMT_FACTOR,
        finish_pad_bandwidth=base.finish_pad_bandwidth * _CHEAP_MGMT_FACTOR,
    )


def _mgmt_point(config: ExperimentConfig, params: dict) -> dict:
    variant = params["variant"]
    sim, device = build_device(
        config, profile=_mgmt_profile(variant), seed_salt=f"mgmt/{variant}"
    )
    runtime = 2 * _age_runtime_ns(config)
    writer = JobRunner(
        device, build_stack(device, "spdk"),
        JobSpec(op=IoKind.APPEND, block_size=64 * KIB, iodepth=4,
                numjobs=2, zones=_MGMT_ZONES, reset_when_full=True,
                runtime_ns=runtime, seed=config.seed),
    )
    sim.run(until=writer.start())
    result = writer.result
    max_erases, retired = _wear_columns(device)
    return {"rows": [{
        "kind": "mgmt",
        "label": variant,
        "append_p50_us": round(result.latency.percentile_us(50), 2),
        "append_p99_us": round(result.latency.percentile_us(99), 2),
        "bandwidth_mibs": round(result.bandwidth_mibs, 1),
        "resets": result.resets,
        "reset_p95_ms": (
            round(result.reset_latency.percentile_ns(95) / 1e6, 2)
            if result.resets else "-"
        ),
        "errors": sum(result.errors.values()),
        "max_erase_count": max_erases,
        "zones_retired": retired,
    }]}


# ----------------------------------------------------------------- plumbing
def _aging_describe(config: ExperimentConfig) -> dict:
    notes = [
        "age sweep: deterministic wear replay (Device.age) then a fixed "
        "append+read workload; interference: pre-aged victim/reclaim "
        "tenants per fault profile; mgmt ablation: calibrated vs "
        f"1/{_CHEAP_MGMT_FACTOR} reset/finish cost (PAPERS.md, small-zone "
        "regime)",
    ]
    if config.faults is None:
        notes.append(
            "no fault profile armed: age() is inert, so the age rows are "
            "identical by construction and only the interference points "
            "arm their own profiles"
        )
    return {
        "title": (
            "wear-dependent aging: latency vs age, interference under "
            "faults, and the zone-management-cost ablation"
        ),
        "columns": [
            "kind", "label", "epochs", "tenant",
            "append_p50_us", "append_p99_us", "read_p50_us", "read_p99_us",
            "bandwidth_mibs", "resets", "reset_p95_ms", "errors",
            "errors_by_owner", "max_erase_count", "zones_retired",
        ],
        "notes": notes,
    }


def _aging_plan(config: ExperimentConfig) -> list:
    return (
        [{"kind": "age", "epochs": e} for e in AGE_EPOCHS]
        + [{"kind": "interference", "profile": p}
           for p in INTERFERENCE_PROFILES]
        + [{"kind": "mgmt", "variant": v} for v in MGMT_VARIANTS]
    )


def _aging_point(config: ExperimentConfig, params: dict) -> dict:
    kind = params["kind"]
    if kind == "age":
        return _age_point(config, params)
    if kind == "interference":
        return _interference_point(config, params)
    if kind == "mgmt":
        return _mgmt_point(config, params)
    raise ValueError(f"unknown fig8_aging point kind {kind!r}")


def _monotone(values: list) -> bool:
    """Non-decreasing, ignoring sub-µs jitter between adjacent points."""
    numeric = [v for v in values if isinstance(v, (int, float))]
    if len(numeric) != len(values) or len(numeric) < 2:
        return False
    return all(b >= a - 1.0 for a, b in zip(numeric, numeric[1:]))


def _aging_fold(result: ExperimentResult, config: ExperimentConfig,
                payloads: list) -> None:
    age_rows = sorted(
        (r for r in result.rows if r["kind"] == "age"),
        key=lambda r: r["epochs"],
    )
    if config.faults is not None and len(age_rows) >= 2:
        append_mono = _monotone([r["append_p99_us"] for r in age_rows])
        read_mono = _monotone([r["read_p99_us"] for r in age_rows])
        result.meta["age_append_p99_monotone"] = append_mono
        result.meta["age_read_p99_monotone"] = read_mono
        first, last = age_rows[0], age_rows[-1]
        growth = (
            last["append_p99_us"] / first["append_p99_us"]
            if first["append_p99_us"] else 0.0
        )
        result.meta["age_append_p99_growth"] = round(growth, 3)
        if append_mono or read_mono:
            which = [name for name, flag in
                     (("append", append_mono), ("read", read_mono)) if flag]
            result.notes.append(
                f"{'/'.join(which)} p99 grows monotonically with age "
                f"under --faults {config.faults} "
                f"(append p99 x{growth:.2f} over {last['epochs']} epochs)"
            )

    victim = {
        row["label"]: row["read_p99_us"]
        for row in result.rows
        if row["kind"] == "interference" and row["tenant"] == "victim"
        and isinstance(row["read_p99_us"], (int, float))
    }
    base = victim.get("none")
    if base:
        inflation = {
            profile: round(victim[profile] / base, 3)
            for profile in INTERFERENCE_PROFILES[1:] if profile in victim
        }
        result.meta["interference_p99_inflation"] = inflation
        for profile, factor in inflation.items():
            result.notes.append(
                f"victim read p99 inflated {factor:.2f}x under the "
                f"pre-aged {profile} profile vs the fresh baseline"
            )

    mgmt = {
        row["label"]: row for row in result.rows if row["kind"] == "mgmt"
    }
    cal, cheap = mgmt.get("calibrated"), mgmt.get("cheap-mgmt")
    if cal and cheap:
        if cal["bandwidth_mibs"]:
            bw_ratio = cheap["bandwidth_mibs"] / cal["bandwidth_mibs"]
            result.meta["mgmt_cheap_bandwidth_ratio"] = round(bw_ratio, 3)
        if (isinstance(cal["reset_p95_ms"], (int, float))
                and isinstance(cheap["reset_p95_ms"], (int, float))
                and cal["reset_p95_ms"]):
            reset_ratio = cheap["reset_p95_ms"] / cal["reset_p95_ms"]
            result.meta["mgmt_cheap_reset_p95_ratio"] = round(reset_ratio, 3)
            result.notes.append(
                f"cheap zone management cuts reset p95 to "
                f"{reset_ratio:.2f}x the calibrated firmware cost over "
                f"a {len(_MGMT_ZONES)}-zone reclaim loop"
            )


#: Latency vs device age, tenant interference under wear-dependent
#: fault profiles, and the zone-management-cost ablation.
FIG8_AGING_PLAN = ExperimentPlan(
    "fig8_aging", _aging_plan, _aging_point, _aging_describe, _aging_fold
)
