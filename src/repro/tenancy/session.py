"""Tenants: one host's independent view of a shared device.

A :class:`Tenant` binds its own host stack instance to a (possibly
shared) device — the thing the workload layer submits through — and
carries an identity: a name, a zone partition, a seeded RNG sub-stream,
per-tenant counters and latency statistics, a latency SLO with live
violation accounting, and per-zone error attribution. Everything a
multi-tenant SLO report needs to say *which* tenant suffered and
*which* zone (hence which co-tenant) was involved lives here.

Determinism: a tenant never draws from a shared RNG — its sub-streams
are derived from ``tenant/<index>/<stream>`` under the root seed so
adding or reordering tenants cannot shift another tenant's draws, and
its accounting is plain arithmetic on simulated-time observations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from ..hostif.commands import Command, Completion
from ..hostif.status import Status
from ..obs.metrics import DEFAULT_LATENCY_BUCKETS_NS
from ..sim.engine import Event
from ..workload.stats import LatencyStats

if TYPE_CHECKING:
    from ..device.core import DeviceCore

__all__ = ["Tenant"]


class Tenant:
    """One host's submission path to a device, with a name, a zone
    partition, an RNG sub-stream, and an SLO.

    The tenant owns no device state — many tenants share one device —
    but every command it issues pays its own host-stack overhead,
    exactly like independent hosts each running their own driver stack
    against a shared namespace. ``stack=None`` builds a private
    SPDK-like stack (the lowest-overhead configuration, and the paper's
    reference stack for interference runs).

    Workloads running in a tenant context report completions through
    :meth:`record` / :meth:`record_error` / :meth:`record_reset`; the
    tenant stamps its name onto every command it submits so device-side
    tracing and failure reports can attribute work to it.
    """

    def __init__(self, device: DeviceCore, name: str, zones=None, stack=None,
                 index: int = 0, seed: int = 0,
                 slo_p99_ns: Optional[int] = None):
        if not name:
            raise ValueError("a tenant needs a non-empty name")
        if stack is None:
            from ..stacks.spdk import SpdkStack

            stack = SpdkStack(device)
        self.device = device
        self.sim = device.sim
        self.stack = stack
        self.name = name
        self.index = index
        self.seed = seed
        #: The zone partition this tenant owns (``None`` for namespace /
        #: address-range tenants on a conventional device).
        self.zones: Optional[tuple[int, ...]] = (
            tuple(zones) if zones is not None else None
        )
        if self.zones is not None and len(set(self.zones)) != len(self.zones):
            raise ValueError(f"tenant {name!r} has duplicate zones")
        #: p99 latency SLO target for the serving (read) path, or None.
        self.slo_p99_ns = slo_p99_ns
        # -- per-tenant accounting (the "DeviceCounters of this tenant") --
        self.latency = LatencyStats()
        self.reset_latency = LatencyStats()
        self.ops = 0
        self.bytes = 0
        self.resets = 0
        self.slo_violations = 0
        self.errors: dict[Status, int] = {}
        #: Per-zone error attribution: zone id -> status -> count. This
        #: is what lets a fleet report name the offending zone (and via
        #: the scheduler's ownership map, the offending tenant).
        self.errors_by_zone: dict[int, dict[Status, int]] = {}
        # Published into the device registry only when observability is
        # on — the same contract as the workload runner's job metrics,
        # so default runs pay nothing and telemetry runs get per-tenant
        # columns (``tenant.<name>.*``) for free.
        if device.observing:
            metrics = device.metrics
            prefix = f"tenant.{name}"
            self._ops_counter = metrics.counter(f"{prefix}.ops")
            self._bytes_counter = metrics.counter(f"{prefix}.bytes")
            self._error_counter = metrics.counter(f"{prefix}.errors")
            self._violation_counter = metrics.counter(
                f"{prefix}.slo_violations")
            self._latency_hist = metrics.histogram(
                f"{prefix}.latency_ns", DEFAULT_LATENCY_BUCKETS_NS)
        else:
            self._ops_counter = None
            self._bytes_counter = None
            self._error_counter = None
            self._violation_counter = None
            self._latency_hist = None

    # -- identity --------------------------------------------------------
    def rng(self, stream) -> np.random.Generator:
        """A named RNG sub-stream private to this tenant.

        Streams are namespaced by ``tenant/<index>/<stream>`` under the
        root seed (same derivation as :class:`repro.sim.rng
        .StreamFactory`), so two tenants — or two streams of one tenant
        — never share draws, and adding a tenant cannot shift another
        tenant's sequence.
        """
        name = f"tenant/{self.index}/{stream}"
        child = np.random.SeedSequence(
            entropy=self.seed, spawn_key=tuple(name.encode("utf-8"))
        )
        return np.random.default_rng(child)

    # -- submission ------------------------------------------------------
    def submit(self, command: Command) -> Event:
        """Stamp the tenant label and issue through the tenant's stack."""
        command.tenant = self.name
        return self.stack.submit(command)

    # -- accounting ------------------------------------------------------
    def record(self, completion: Completion, nbytes: int = 0) -> None:
        """Account one successful serving-path completion."""
        latency_ns = completion.latency_ns
        self.ops += 1
        self.bytes += nbytes
        self.latency.record(latency_ns)
        if self.slo_p99_ns is not None and latency_ns > self.slo_p99_ns:
            self.slo_violations += 1
            if self._violation_counter is not None:
                self._violation_counter.inc()
        if self._ops_counter is not None:
            self._ops_counter.inc()
            self._bytes_counter.inc(nbytes)
            self._latency_hist.observe(latency_ns)

    def record_error(self, status: Status, slba: Optional[int] = None) -> None:
        """Account a failed command, attributing it to a zone if possible."""
        self.errors[status] = self.errors.get(status, 0) + 1
        if self._error_counter is not None:
            self._error_counter.inc()
        if slba is None:
            return
        zones = self.device.zones
        if zones is None:
            return
        zone = zones.zone_containing(slba)
        if zone is None:
            return
        per_zone = self.errors_by_zone.setdefault(zone.index, {})
        per_zone[status] = per_zone.get(status, 0) + 1

    def record_reset(self, latency_ns: Optional[int] = None) -> None:
        """Account one successful zone reset issued by this tenant."""
        self.resets += 1
        if latency_ns is not None:
            self.reset_latency.record(latency_ns)

    # -- summary ---------------------------------------------------------
    @property
    def p99_ns(self) -> float:
        return self.latency.percentile_ns(99)

    @property
    def slo_met(self) -> Optional[bool]:
        """Whether the measured p99 met the SLO (None without a target
        or without samples)."""
        if self.slo_p99_ns is None or not self.latency.count:
            return None
        return self.p99_ns <= self.slo_p99_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        zones = f"{len(self.zones)} zones" if self.zones is not None else "ns"
        return f"Tenant({self.name!r}, {zones}, ops={self.ops})"
