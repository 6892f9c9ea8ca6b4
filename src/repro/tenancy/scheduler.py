"""Scheduling concurrent tenants against one shared device.

The :class:`TenantScheduler` is the fleet's control plane: it checks
that tenant zone partitions are disjoint, starts every tenant's
workloads inside the one shared simulation, and folds each tenant's
accounting into a :class:`TenantResult` row — per-tenant p99, SLO
violations, reset counts, and per-zone error attribution resolved to
the *owning* tenant's name (so a report can say "tenant A's read failed
in tenant B's zone").

Workloads are anything with ``start() -> Event`` (the event fires when
the workload is done) that account through their tenant:
:class:`~repro.apps.lsm.LsmWorkload` or the :class:`ResetStorm`
antagonist below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from ..hostif.commands import Command, Opcode, ZoneAction
from ..hostif.status import Status
from ..sim.engine import Event, Simulator, us
from ..zns.spec import ZoneState
from .session import Tenant

__all__ = ["ResetStorm", "TenantResult", "TenantScheduler", "partition_zones"]


def partition_zones(num_zones: int, counts: list[int],
                    start: int = 0) -> list[list[int]]:
    """Split ``[start, num_zones)`` into consecutive partitions.

    ``counts`` gives each partition's size; raises if they don't fit.
    Deterministic and order-preserving — partition *i* always gets the
    same zones regardless of how many other partitions follow.
    """
    partitions: list[list[int]] = []
    cursor = start
    for count in counts:
        if count <= 0:
            raise ValueError(f"partition sizes must be positive, got {count}")
        end = cursor + count
        if end > num_zones:
            raise ValueError(
                f"partitions need {end - start} zones but only "
                f"{num_zones - start} are available from {start}"
            )
        partitions.append(list(range(cursor, end)))
        cursor = end
    return partitions


@dataclass
class TenantResult:
    """One tenant's fleet-run outcome (a table row, essentially)."""

    tenant: str
    workload: str
    ops: int
    p50_us: float
    p99_us: float
    slo_p99_us: Optional[float]
    slo_violations: int
    resets: int
    reset_p95_ms: float
    errors: dict[Status, int] = field(default_factory=dict)
    #: zone id -> status -> count, same shape as ``Tenant.errors_by_zone``.
    errors_by_zone: dict[int, dict[Status, int]] = field(default_factory=dict)
    #: ``errors_by_zone`` re-keyed by the *owning* tenant's name — the
    #: attribution a fleet SLO report actually wants.
    errors_by_owner: dict[str, int] = field(default_factory=dict)


class TenantScheduler:
    """Runs concurrent tenants sharing one device in one simulation."""

    def __init__(self, device):
        self.device = device
        self.sim: Simulator = device.sim
        self._tenants: list[Tenant] = []
        self._workloads: list[tuple[Tenant, object, str]] = []
        self._zone_owner: dict[int, str] = {}

    @property
    def tenants(self) -> list[Tenant]:
        return list(self._tenants)

    def add_tenant(self, tenant: Tenant) -> Tenant:
        """Register a tenant, enforcing disjoint zone partitions."""
        if any(t.name == tenant.name for t in self._tenants):
            raise ValueError(f"duplicate tenant name {tenant.name!r}")
        if tenant.zones is not None:
            for zone_id in tenant.zones:
                owner = self._zone_owner.get(zone_id)
                if owner is not None:
                    raise ValueError(
                        f"zone {zone_id} already owned by tenant {owner!r}"
                    )
            for zone_id in tenant.zones:
                self._zone_owner[zone_id] = tenant.name
        self._tenants.append(tenant)
        return tenant

    def add_workload(self, tenant: Tenant, workload, kind: str = "") -> None:
        """Attach a workload (``start() -> Event``) to a tenant."""
        if tenant not in self._tenants:
            self.add_tenant(tenant)
        name = kind or type(workload).__name__.lower()
        self._workloads.append((tenant, workload, name))

    def start(self) -> Event:
        """Launch every workload; fires when all of them finish.

        Workloads start in registration order — the deterministic
        ordering contract the bit-reproducibility tests pin down.
        """
        if not self._workloads:
            raise ValueError("no tenant workloads registered")
        return self.sim.all_of([w.start() for _, w, _ in self._workloads])

    def run(self) -> list[TenantResult]:
        """Start all tenants, run the simulation to completion, and
        return one result per tenant (registration order)."""
        self.sim.run(until=self.start())
        return self.results()

    def results(self) -> list[TenantResult]:
        workload_names: dict[str, list[str]] = {}
        for tenant, _, name in self._workloads:
            kinds = workload_names.setdefault(tenant.name, [])
            if name not in kinds:
                kinds.append(name)
        out = []
        for tenant in self._tenants:
            by_owner: dict[str, int] = {}
            for zone_id, statuses in sorted(tenant.errors_by_zone.items()):
                owner = self._zone_owner.get(zone_id, "?")
                by_owner[owner] = by_owner.get(owner, 0) + sum(statuses.values())
            out.append(TenantResult(
                tenant=tenant.name,
                workload="+".join(workload_names.get(tenant.name, [])) or "-",
                ops=tenant.ops,
                p50_us=tenant.latency.percentile_us(50),
                p99_us=tenant.latency.percentile_us(99),
                slo_p99_us=(
                    tenant.slo_p99_ns / 1_000
                    if tenant.slo_p99_ns is not None else None
                ),
                slo_violations=tenant.slo_violations,
                resets=tenant.resets,
                reset_p95_ms=tenant.reset_latency.percentile_ns(95) / 1e6,
                errors=dict(tenant.errors),
                errors_by_zone={
                    z: dict(s) for z, s in tenant.errors_by_zone.items()
                },
                errors_by_owner=by_owner,
            ))
        return out


class ResetStorm:
    """A reset antagonist as a tenant workload: fill, reset, repeat.

    Cycles through the tenant's zone partition until ``until_ns``,
    refilling each zone with real appends through the tenant's own
    stack and resetting it once full, like a WAL/ring-buffer tenant
    that burns and reclaims zones. Those writes program the shared die
    stripe, so co-located serving tenants' read tails inflate (the
    Obs #11 die-backlog mechanism) while this tenant's resets inflate
    under their I/O (Obs #12/#13) — both directions of the paper's
    interference story, attributed per tenant. (fig7's pure-reset
    microbenchmark pre-fills its zones out of band instead.)

    Reset latencies and failures land in the tenant's accounting with
    per-zone attribution.
    """

    def __init__(self, tenant: Tenant, until_ns: int,
                 append_chunk: int = 128 * 1024, pace_ns: int = 0):
        if tenant.zones is None:
            raise ValueError("ResetStorm needs a zone partition")
        self.tenant = tenant
        self.device = tenant.device
        self.sim = tenant.sim
        self.until_ns = until_ns
        self.append_chunk = append_chunk
        #: Gap between refill appends: paces the tenant's write
        #: bandwidth at ``append_chunk / pace_ns`` instead of letting
        #: QD1 admission saturate the device outright.
        self.pace_ns = pace_ns
        self.zone_pool = list(tenant.zones)
        self._filled: list[int] = []

    def start(self) -> Event:
        # Decoupled producer/consumer: resets serialize on the firmware
        # engine and stall under co-tenant I/O (Obs #13), so a
        # fill-then-await-reset loop would spend the whole run inside
        # one reset and generate no write pressure at all. A real log
        # tenant keeps writing while reclaim trails.
        return self.sim.all_of([
            self.sim.process(self._writer()),
            self.sim.process(self._resetter()),
        ])

    def _writer(self) -> Generator:
        device = self.device
        tenant = self.tenant
        block = device.namespace.block_size
        chunk_nlb = max(1, self.append_chunk // block)
        index = 0
        while self.sim.now < self.until_ns:
            zone_id = self.zone_pool[index % len(self.zone_pool)]
            index += 1
            zone = device.zones.zones[zone_id]
            if zone.state is not ZoneState.EMPTY:
                if index % len(self.zone_pool) == 0:
                    # Whole pool awaiting reclaim; wait for the resetter.
                    yield us(50)
                continue
            failed = False
            remaining = zone.cap_lbas
            while remaining > 0 and self.sim.now < self.until_ns:
                nlb = min(chunk_nlb, remaining)
                completion = yield tenant.submit(
                    Command(Opcode.APPEND, slba=zone.zslba, nlb=nlb))
                if not completion.ok:
                    tenant.record_error(completion.status, zone.zslba)
                    failed = True
                    break
                remaining -= nlb
                if self.pace_ns:
                    yield self.pace_ns
            if not failed and remaining == 0:
                self._filled.append(zone_id)

    def _resetter(self) -> Generator:
        device = self.device
        tenant = self.tenant
        while self.sim.now < self.until_ns:
            if not self._filled:
                yield us(50)
                continue
            zone = device.zones.zones[self._filled.pop(0)]
            completion = yield tenant.submit(
                Command(Opcode.ZONE_MGMT, slba=zone.zslba,
                        action=ZoneAction.RESET)
            )
            if completion.ok:
                tenant.record_reset(completion.latency_ns)
            else:
                tenant.record_error(completion.status, zone.zslba)
