"""Tenant/namespace session tier: many independent hosts, one device.

The paper characterizes a device driven by a single benchmark process;
the production scenario its interference observations (#10-#13) matter
for is many independent hosts — tenants — sharing one ZNS device or a
striped array, each with its own host stack, zone partition, workload,
and latency SLO. This package owns that tier:

* :class:`Tenant` — one host's view of a shared device: its own stack
  instance, seeded RNG sub-stream, per-tenant counters/latency stats,
  SLO-violation accounting, and per-zone error attribution.
* :class:`TenantScheduler` — runs concurrent tenants against one
  device inside one simulation, maps zones back to their owning tenant,
  and folds each tenant's accounting into a :class:`TenantResult`.
* :class:`ResetStorm` — a reset antagonist as a tenant workload
  (appends refill zones inside the tenant's partition; resets trail).

Workloads run *within* a tenant context: :class:`ResetStorm` and the
LSM serving workload (:mod:`repro.apps.lsm`) thread every command
through the tenant's stack, so completions, errors, and SLO violations
are attributed to the issuing tenant all the way down to telemetry
columns.
"""

from .scheduler import ResetStorm, TenantResult, TenantScheduler, partition_zones
from .session import Tenant

__all__ = [
    "ResetStorm",
    "Tenant",
    "TenantResult",
    "TenantScheduler",
    "partition_zones",
]
