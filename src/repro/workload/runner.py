"""Workload execution: turning a JobSpec into simulated I/O and metrics.

A runner spawns ``numjobs × iodepth`` closed-loop submission slots, each
repeatedly asking its thread's access pattern for the next command,
pacing against the job's rate limit, submitting through the storage
stack, and recording completion latency and throughput after the ramp
window — the structure of the paper's fio/SPDK benchmarks.

Zone resets needed by long write/append runs (host-managed GC) are issued
directly to the device — the paper's benchmarks do the same via
nvme-cli/SPDK rather than through the measured I/O path — and their
latencies are recorded separately (used by Fig. 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator

import numpy as np

from ..hostif.commands import Command, Opcode, ZoneAction
from ..hostif.status import Status
from ..obs.metrics import DEFAULT_LATENCY_BUCKETS_NS
from ..sim.engine import Event, NS_PER_S, Simulator, us
from .job import IoKind, JobSpec, Pattern
from .patterns import (
    BACKOFF,
    RandomReadPattern,
    RangePattern,
    ZoneAppendCursor,
    ZoneWriteCursor,
)
from .ratelimit import RatePacer
from .stats import LatencyStats, TimeSeries

if TYPE_CHECKING:  # import cycle: the device layer pulls in zns → workload
    from ..device.core import DeviceCore

__all__ = ["JobResult", "JobRunner"]

#: Default bucketing of throughput-over-time series.
DEFAULT_TS_INTERVAL_NS = 50_000_000  # 50 ms


@dataclass
class JobResult:
    """Measured outcome of one job (post-ramp window only)."""

    job: JobSpec
    latency: LatencyStats = field(default_factory=LatencyStats)
    reset_latency: LatencyStats = field(default_factory=LatencyStats)
    timeseries: TimeSeries = field(default_factory=lambda: TimeSeries(DEFAULT_TS_INTERVAL_NS))
    ops: int = 0
    bytes: int = 0
    resets: int = 0
    errors: dict[Status, int] = field(default_factory=dict)
    measured_ns: int = 0
    #: Degraded-mode accounting (fault-injection runs only): host-side
    #: command-timeout aborts and bounded retries of retryable statuses.
    timeouts: int = 0
    retries: int = 0

    @property
    def iops(self) -> float:
        if self.measured_ns == 0:
            return 0.0
        return self.ops * NS_PER_S / self.measured_ns

    @property
    def kiops(self) -> float:
        return self.iops / 1_000

    @property
    def bandwidth_mibs(self) -> float:
        if self.measured_ns == 0:
            return 0.0
        return self.bytes * NS_PER_S / self.measured_ns / (1024 * 1024)


class JobRunner:
    """Runs one JobSpec against a device through one host stack.

    Several runners may share one device concurrently (fig6's writer and
    reader, the aging experiment's reclaim writer). Workloads that need
    per-tenant attribution drive a :class:`~repro.tenancy.Tenant`
    directly instead (:class:`~repro.tenancy.ResetStorm`,
    :class:`~repro.apps.lsm.LsmWorkload`).
    """

    def __init__(self, device: DeviceCore, stack, job: JobSpec,
                 ts_interval_ns: int = DEFAULT_TS_INTERVAL_NS):
        self.device = device
        self.stack = stack
        self.job = job
        self.sim: Simulator = device.sim
        self.result = JobResult(job=job, timeseries=TimeSeries(ts_interval_ns))
        self._pacer = (
            RatePacer(self.sim, job.rate_limit_bps)
            if job.rate_limit_bps is not None
            else None
        )
        self._resetting: set[int] = set()
        self._started = False
        # Publish per-job measured counters into the device's registry so
        # ``--metrics`` / ``repro profile`` see workload-level aggregates
        # alongside the device-internal ones. Only when observability was
        # requested — default runs must not pay per-op histogram updates.
        metrics = device.metrics if device.observing else None
        if metrics is not None:
            prefix = f"workload.{job.name}"
            self._ops_counter = metrics.counter(f"{prefix}.ops")
            self._bytes_counter = metrics.counter(f"{prefix}.bytes")
            self._latency_hist = metrics.histogram(
                f"{prefix}.latency_ns", DEFAULT_LATENCY_BUCKETS_NS
            )
        else:
            self._ops_counter = None
            self._bytes_counter = None
            self._latency_hist = None
        # Host-managed-GC visibility on telemetry timelines: zone resets
        # issued by this job, windowed by the sampler. Registered only
        # when a sampler is attached — adding it to plain ``--metrics``
        # runs would change their (pinned, pre-telemetry) table output.
        self._reset_counter = (
            metrics.counter(f"{prefix}.resets")
            if metrics is not None and device.telemetry is not None
            else None
        )
        # Host-side resilience policy (DESIGN.md §12): armed only when the
        # device runs with fault injection, so fault-free runs keep the
        # exact event sequence (and RNG draws) of the plain submit loop.
        injector = device.faults
        self._fault_plan = injector.plan if injector is not None else None
        if self._fault_plan is not None:
            self._timeout_counter = device.metrics.counter("host.timeouts")
            self._retry_counter = device.metrics.counter("host.retries")

    # -- orchestration ------------------------------------------------------
    def start(self) -> Event:
        """Launch all slots; the returned event fires when the job ends."""
        if self._started:
            raise RuntimeError("runner already started")
        self._started = True
        self._start_ns = self.sim.now
        self._end_ns = self.sim.now + self.job.runtime_ns
        self._ramp_end_ns = self.sim.now + self.job.ramp_ns
        slots = []
        for thread in range(self.job.numjobs):
            pattern = self._build_pattern(thread)
            for _ in range(self.job.iodepth):
                slots.append(self.sim.process(self._slot(pattern)))
        done = self.sim.all_of(slots)
        done.add_callback(lambda _e: self._finalize())
        return done

    def run(self) -> JobResult:
        """Start and run the simulation until the job completes."""
        self.sim.run(until=self.start())
        return self.result

    def _finalize(self) -> None:
        self.result.measured_ns = max(0, self.sim.now - self._ramp_end_ns)

    # -- pattern construction --------------------------------------------------
    def _build_pattern(self, thread: int):
        job = self.job
        nlb = self.device.namespace.lbas(job.block_size)
        rng = np.random.default_rng((job.seed, thread))
        zones = job.zones_for_thread(thread)
        if zones is None:
            if job.address_range is None:
                raise ValueError(
                    f"job {job.name!r} targets no zones and no address range"
                )
            opcode = Opcode.READ if job.op == IoKind.READ else Opcode.WRITE
            if job.op == IoKind.APPEND:
                raise ValueError("append requires zones")
            return RangePattern(
                opcode, job.address_range, nlb,
                random=(job.pattern == Pattern.RANDOM), rng=rng,
            )
        if job.op == IoKind.READ:
            return RandomReadPattern(self.device, zones, nlb, rng)
        if job.op == IoKind.WRITE:
            return ZoneWriteCursor(self.device, zones, nlb, job.reset_when_full)
        return ZoneAppendCursor(
            self.device, zones, nlb, job.reset_when_full,
            rng=rng if job.pattern == Pattern.RANDOM or len(zones) > 1 else None,
        )

    # -- the submission loop ----------------------------------------------------
    def _slot(self, pattern) -> Generator:
        job = self.job
        sim = self.sim
        end_ns = self._end_ns
        next_target = pattern.next_target
        submit = self.stack.submit
        is_append = isinstance(pattern, ZoneAppendCursor)
        while sim.now < end_ns:
            command, reset_zone = next_target()
            if reset_zone is not None:
                yield from self._reset_zone(pattern, reset_zone)
                continue
            if command is BACKOFF:
                # All target zones transiently blocked by in-flight work;
                # wait out a completion window and retry instead of
                # retiring the slot (which would shrink concurrency).
                yield sim.timeout(us(10))
                continue
            if command is None:
                return
            if self._pacer is not None:
                delay = self._pacer.delay_for(job.block_size)
                if delay:
                    yield sim.timeout(delay)
                if sim.now >= end_ns:
                    return
            if self._fault_plan is None:
                completion = yield submit(command)
            else:
                completion = yield from self._submit_resilient(
                    command, pattern, is_append)
                if completion is None:
                    continue  # timed out; accounted inside
            if is_append:
                pattern.completed(command)
            self._record(completion)

    def _submit_resilient(self, command, pattern, is_append: bool):
        """Fault-mode submit: command timeout + bounded retry w/ backoff.

        Returns the final completion, or ``None`` when the command timed
        out (the abort is counted as ``COMMAND_ABORTED``; the in-flight
        device work still finishes, and for appends the cursor
        reservation is released when the straggler eventually lands).
        Each retry restamps ``submitted_at`` — the recorded latency is
        the final attempt's, while the backoff delay shows up as lost
        throughput, which is the degraded-mode signal we want.
        """
        plan = self._fault_plan
        sim = self.sim
        attempts = 0
        while True:
            target = self.stack.submit(command)
            if plan.command_timeout_ns is not None:
                timer = sim.timeout(plan.command_timeout_ns)
                yield sim.any_of([target, timer])
                if not target.triggered:
                    self.result.timeouts += 1
                    errors = self.result.errors
                    aborted = Status.COMMAND_ABORTED
                    errors[aborted] = errors.get(aborted, 0) + 1
                    self._timeout_counter.inc()
                    # The device cannot revoke in-flight NAND work, so the
                    # abort drains the straggler before the slot moves on:
                    # reusing the zone/slot immediately would violate the
                    # host contract (e.g. one in-flight write per zone).
                    # The command is still *lost* to the host — no latency
                    # sample, an ABORTED error, stalled throughput.
                    yield target
                    if is_append:
                        pattern.completed(command)
                    return None
                completion = target.value
            else:
                completion = yield target
            if (completion.ok or not completion.status.retryable
                    or attempts >= plan.max_retries):
                return completion
            attempts += 1
            self.result.retries += 1
            self._retry_counter.inc()
            yield sim.timeout(plan.retry_backoff_ns << (attempts - 1))
            command.submitted_at = -1

    def _reset_zone(self, pattern, zone_id: int) -> Generator:
        if zone_id in self._resetting:
            # Another slot is already resetting this zone; back off.
            yield self.sim.timeout(us(10))
            return
        self._resetting.add(zone_id)
        try:
            zslba = self.device.zones.zones[zone_id].zslba
            command = Command(Opcode.ZONE_MGMT, slba=zslba, action=ZoneAction.RESET)
            completion = yield self.device.submit(command)
            if completion.ok:
                self.result.resets += 1
                if self._reset_counter is not None:
                    self._reset_counter.inc()
                if self.sim.now >= self._ramp_end_ns:
                    self.result.reset_latency.record(completion.latency_ns)
                # Only a *successful* reset rewinds the write pointer;
                # clearing the cursor's reservations for a zone that was
                # never reset would let appends overshoot its capacity.
                if isinstance(pattern, ZoneAppendCursor):
                    pattern.reset_done(zone_id)
            else:
                errors = self.result.errors
                errors[completion.status] = errors.get(completion.status, 0) + 1
        finally:
            self._resetting.discard(zone_id)

    def _record(self, completion) -> None:
        if not completion.ok:
            errors = self.result.errors
            errors[completion.status] = errors.get(completion.status, 0) + 1
            return
        if self.sim.now < self._ramp_end_ns:
            return
        self.result.ops += 1
        self.result.bytes += self.job.block_size
        self.result.latency.record(completion.latency_ns)
        self.result.timeseries.record(self.sim.now, self.job.block_size)
        if self._ops_counter is not None:
            self._ops_counter.inc()
            self._bytes_counter.inc(self.job.block_size)
            self._latency_hist.observe(completion.latency_ns)

