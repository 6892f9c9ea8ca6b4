"""§III-E: zone state-machine transition costs.

* **Observation #9** — explicit vs implicit open cost, close cost, and
  the first-write/append penalty on implicitly opened zones.
* **Fig. 5a** — reset latency vs zone occupancy, for zones that were and
  were not finished first.
* **Fig. 5b** — finish latency vs zone occupancy.

As in the paper these use the SPDK path (fio cannot issue the
transitions). Occupancy is established with the ``force_fill`` fixture —
the metadata-equivalent of the paper's "fill with sequential 4 KiB
writes" (equivalence is unit-tested) — so a sweep over thousands of
zone-resets stays tractable.

These sweeps are decomposed into independent points (one occupancy
level / transition group per point) like every other experiment, so the
execution engine can cache and parallelize them. Two mechanisms make
the points independent:

* each point builds its own device with a point-specific seed salt
  (:func:`~.common.build_device` ``seed_salt``), so jitter draws do not
  depend on which points ran before it, and
* within a point, repetitions rewind the device with
  ``state_snapshot``/``restore_state`` instead of issuing extra RESET
  commands, so a rep never inherits firmware mapping debt or flush
  residue from the previous one.
"""

from __future__ import annotations

from ...hostif.commands import Command, Opcode, ZoneAction
from ...workload.stats import LatencyStats
from .common import KIB, ExperimentConfig, build_device
from .points import ExperimentPlan

__all__ = ["OBS9_PLAN", "FIG5A_PLAN", "FIG5B_PLAN",
           "OCCUPANCY_LEVELS", "FIG5B_LEVELS"]

#: The paper's occupancy levels: 0 %, one page, 6.25 % ... 100 %.
OCCUPANCY_LEVELS = ("0%", "1page", "6.25%", "12.5%", "25%", "50%", "100%")

#: Fig. 5b sweeps finishable occupancies: "<0.1%" fills one page (finish
#: on an empty zone is not permitted); "~100%" fills all but one page.
FIG5B_LEVELS = ("<0.1%", "6.25%", "12.5%", "25%", "50%", "~100%")


def _sweep_reps(config: ExperimentConfig) -> int:
    """Repetitions per occupancy level in the fig5a/fig5b sweeps.

    The paper measures thousands of resets per level; our per-rep cost
    is a handful of metadata commands (``force_fill`` replaces the
    fill), so we can afford 4x the configured zone count for tight
    means — the fig5a benchmark asserts the *difference* between two
    ~13 ms means to ±25 %.
    """
    return 4 * config.zones_per_level


def _occupancy_lbas(level: str, cap_lbas: int, page_lbas: int) -> int:
    if level == "0%":
        return 0
    if level == "1page" or level == "<0.1%":
        return page_lbas
    if level == "~100%":
        return cap_lbas - page_lbas
    fraction = float(level.rstrip("%")) / 100.0
    return round(cap_lbas * fraction)


def _mgmt(device, zone_index: int, action: ZoneAction):
    zslba = device.zones.zones[zone_index].zslba
    done = device.submit(Command(Opcode.ZONE_MGMT, slba=zslba, action=action))
    return device.sim.run(until=done)


def _io(device, command: Command):
    return device.sim.run(until=device.submit(command))


def _rewind(device, pristine: dict) -> None:
    """Drain in-flight work, then rewind the device to its pristine image."""
    device.sim.run()
    device.restore_state(pristine)


# --- Observation #9: open/close and implicit-open costs ---------------------

#: Transition groups, in the original row order of the obs9 table.
_OBS9_GROUPS = ("explicit", "implicit-write", "implicit-append")


def _obs9_plan(config: ExperimentConfig) -> list:
    return [{"group": group} for group in _OBS9_GROUPS]


def _obs9_describe(config: ExperimentConfig) -> dict:
    return {
        "title": "Zone open/close and implicit-open costs (SPDK, 4 KiB I/O)",
        "columns": ["quantity", "latency_us"],
    }


def _obs9_point(config: ExperimentConfig, params: dict) -> dict:
    group = params["group"]
    sim, device = build_device(config, seed_salt=f"obs9/{group}")
    pristine = device.state_snapshot()
    reps = max(8, config.zones_per_level)
    nlb = device.namespace.lbas(4 * KIB)
    rows: list[dict] = []

    if group == "explicit":
        open_lat, close_lat = LatencyStats(), LatencyStats()
        for rep in range(reps):
            zone = rep % 4
            open_lat.record(_mgmt(device, zone, ZoneAction.OPEN).latency_ns)
            # Fill a little so close is on a written zone, then close.
            _io(device, Command(Opcode.WRITE,
                                slba=device.zones.zones[zone].wp, nlb=nlb))
            close_lat.record(_mgmt(device, zone, ZoneAction.CLOSE).latency_ns)
            _rewind(device, pristine)
        rows.append({"quantity": "explicit open",
                     "latency_us": open_lat.mean_us})
        rows.append({"quantity": "close", "latency_us": close_lat.mean_us})
    elif group == "implicit-write":
        first_w, later_w = LatencyStats(), LatencyStats()
        for rep in range(reps):
            zone_obj = device.zones.zones[4]
            first_w.record(_io(device, Command(
                Opcode.WRITE, slba=zone_obj.wp, nlb=nlb)).latency_ns)
            later_w.record(_io(device, Command(
                Opcode.WRITE, slba=zone_obj.wp, nlb=nlb)).latency_ns)
            _rewind(device, pristine)
        rows.append({"quantity": "first write after implicit open",
                     "latency_us": first_w.mean_us})
        rows.append({"quantity": "later write",
                     "latency_us": later_w.mean_us})
        rows.append({"quantity": "implicit-open write penalty",
                     "latency_us": first_w.mean_us - later_w.mean_us})
    else:
        first_a, later_a = LatencyStats(), LatencyStats()
        for rep in range(reps):
            zone_obj = device.zones.zones[5]
            first_a.record(_io(device, Command(
                Opcode.APPEND, slba=zone_obj.zslba, nlb=nlb)).latency_ns)
            later_a.record(_io(device, Command(
                Opcode.APPEND, slba=zone_obj.zslba, nlb=nlb)).latency_ns)
            _rewind(device, pristine)
        rows.append({"quantity": "first append after implicit open",
                     "latency_us": first_a.mean_us})
        rows.append({"quantity": "later append",
                     "latency_us": later_a.mean_us})
        rows.append({"quantity": "implicit-open append penalty",
                     "latency_us": first_a.mean_us - later_a.mean_us})
    return {"rows": rows}


#: Explicit/implicit open costs and close cost (Observation #9).
OBS9_PLAN = ExperimentPlan("obs9", _obs9_plan, _obs9_point, _obs9_describe)


# --- Fig. 5a: reset latency vs occupancy ------------------------------------

def _fig5a_plan(config: ExperimentConfig) -> list:
    return [
        {"finished_first": finished_first, "occupancy": level}
        for finished_first in (False, True)
        for level in OCCUPANCY_LEVELS
    ]


def _fig5a_describe(config: ExperimentConfig) -> dict:
    return {
        "title": "reset latency vs zone occupancy",
        "columns": ["occupancy", "finished_first", "reset_ms", "p95_ms"],
        "meta": {"zones_per_level": config.zones_per_level,
                 "reps_per_level": _sweep_reps(config)},
    }


def _fig5a_point(config: ExperimentConfig, params: dict) -> dict:
    level = params["occupancy"]
    finished_first = params["finished_first"]
    if finished_first and level in ("0%", "100%"):
        # finish is illegal on empty/full zones (§III-E); no row.
        return {"rows": []}
    salt = f"fig5a/{'finished' if finished_first else 'unfinished'}/{level}"
    sim, device = build_device(config, seed_salt=salt)
    pristine = device.state_snapshot()
    page_lbas = device.profile.geometry.page_size // device.namespace.block_size
    stats = LatencyStats()
    for rep in range(_sweep_reps(config)):
        zone_index = rep % 8
        zone = device.zones.zones[zone_index]
        nlb = _occupancy_lbas(level, zone.cap_lbas, page_lbas)
        status = device.force_fill(zone_index, nlb)
        assert status.ok, status
        if finished_first:
            _mgmt(device, zone_index, ZoneAction.FINISH)
        cpl = _mgmt(device, zone_index, ZoneAction.RESET)
        stats.record(cpl.latency_ns)
        _rewind(device, pristine)
    return {"rows": [{
        "occupancy": level,
        "finished_first": finished_first,
        "reset_ms": stats.mean_ns / 1e6,
        "p95_ms": stats.percentile_ns(95) / 1e6,
    }]}


#: Reset latency vs occupancy, finished and unfinished (Fig. 5a).
FIG5A_PLAN = ExperimentPlan("fig5a", _fig5a_plan, _fig5a_point,
                            _fig5a_describe)


# --- Fig. 5b: finish latency vs occupancy -----------------------------------

def _fig5b_plan(config: ExperimentConfig) -> list:
    return [{"occupancy": level} for level in FIG5B_LEVELS]


def _fig5b_describe(config: ExperimentConfig) -> dict:
    return {
        "title": "finish latency vs zone occupancy",
        "columns": ["occupancy", "finish_ms", "p95_ms"],
    }


def _fig5b_point(config: ExperimentConfig, params: dict) -> dict:
    level = params["occupancy"]
    sim, device = build_device(config, seed_salt=f"fig5b/{level}")
    pristine = device.state_snapshot()
    page_lbas = device.profile.geometry.page_size // device.namespace.block_size
    stats = LatencyStats()
    for rep in range(_sweep_reps(config)):
        zone_index = rep % 8
        zone = device.zones.zones[zone_index]
        nlb = _occupancy_lbas(level, zone.cap_lbas, page_lbas)
        status = device.force_fill(zone_index, nlb)
        assert status.ok, status
        cpl = _mgmt(device, zone_index, ZoneAction.FINISH)
        stats.record(cpl.latency_ns)
        _rewind(device, pristine)
    return {"rows": [{
        "occupancy": level,
        "finish_ms": stats.mean_ns / 1e6,
        "p95_ms": stats.percentile_ns(95) / 1e6,
    }]}


#: Finish latency vs occupancy (Fig. 5b).
FIG5B_PLAN = ExperimentPlan("fig5b", _fig5b_plan, _fig5b_point,
                            _fig5b_describe)
