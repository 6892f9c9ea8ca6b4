"""Top-level reporting: the paper's Table I and Table II."""

from __future__ import annotations

from typing import Optional

from ..flash.geometry import MIB
from ..zns.profiles import DeviceProfile, zn540
from .observations import ObservationCheck
from .recommendations import validate
from .results import render_table

__all__ = ["table1", "table2"]


def table1(checks: list[ObservationCheck]) -> str:
    """The paper's Table I (key insights) with reproduction status."""
    by_id = {c.obs_id: c for c in checks}
    rows = []
    for rec, ok in validate(checks):
        supporting = ", ".join(
            f"#{i}{'✓' if i in by_id and by_id[i].passed else ('?' if i not in by_id else '✗')}"
            for i in rec.supported_by
        )
        rows.append(
            {
                "category": rec.category,
                "insight": rec.text.split(";")[0].split(". ")[0],
                "observations": supporting,
                "validated": "yes" if ok else "no",
            }
        )
    return render_table(
        ["category", "insight", "observations", "validated"],
        rows,
        title="[table1] Key insights (paper Table I) and reproduction status",
    )


def table2(profile: Optional[DeviceProfile] = None) -> str:
    """The benchmarking environment (paper Table II), simulated edition."""
    profile = profile or zn540()
    geo = profile.geometry
    rows = [
        {"component": "Platform", "configuration":
            "discrete-event simulation (integer-nanosecond clock, deterministic seeds)"},
        {"component": "ZNS device", "configuration":
            f"{profile.name}: zone size {profile.zone_size_bytes // MIB:,} MiB, "
            f"zone capacity {profile.zone_cap_bytes // MIB:,} MiB, "
            f"{profile.num_zones} zones, max active/open {profile.max_active_zones}"},
        {"component": "Flash backend", "configuration":
            f"{geo.channels} channels x {geo.dies_per_channel} dies, "
            f"{geo.page_size // 1024} KiB pages, tR {profile.nand.read_ns / 1000:.0f} us, "
            f"tPROG {profile.nand.program_ns / 1000:.0f} us, "
            f"tBERS {profile.nand.erase_ns / 1e6:.1f} ms "
            f"(~{profile.nand.program_bandwidth(geo) / MIB:,.0f} MiB/s program bandwidth)"},
        {"component": "Write buffer", "configuration":
            f"{profile.write_buffer_bytes // MIB} MiB, capacitor-backed "
            "(writes acknowledged at admission)"},
        {"component": "Conventional device", "configuration":
            "same backend + page-mapped FTL, 7% overprovisioning, greedy GC"},
        {"component": "Stacks", "configuration":
            "SPDK-like (polling, no scheduler) and io_uring-like "
            "(none / mq-deadline schedulers)"},
        {"component": "Workloads", "configuration":
            "fio-like job engine (QD, numjobs, rate limiting, ramp, zones)"},
    ]
    return render_table(
        ["component", "configuration"], rows,
        title="[table2] Benchmarking environment (simulated testbed)",
    )
