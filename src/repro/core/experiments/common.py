"""Shared scaffolding for the paper-experiment drivers.

Each driver builds fresh simulated devices per measured point (fio also
restarts between points), runs the workload for a configurable simulated
duration, and reports the same quantities the paper plots.

``ExperimentConfig`` centralizes the scale knobs. The defaults are the
"fast" settings used by the test suite and benchmark harness; passing
``duration_scale > 1`` tightens statistics at proportional wall-clock
cost. The paper's 20-minute wall-clock runs are replaced by much shorter
*simulated* windows — the simulated device is stationary, so statistics
converge quickly (DESIGN.md §7).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ...conv.device import ConvDevice
from ...faults.plan import resolve
from ...hostif.namespace import LBA_4K, LbaFormat
from ...obs.metrics import MetricsRegistry
from ...obs.tracer import Tracer
from ...sim.engine import Simulator, ms
from ...sim.rng import StreamFactory
from ...stacks.iouring import IoUringStack
from ...stacks.spdk import SpdkStack
from ...stacks.thrpool import ThreadPoolStack
from ...workload.job import JobSpec
from ...workload.runner import JobResult, JobRunner
from ...zns.device import ZnsDevice
from ...zns.profiles import DeviceProfile, zn540

__all__ = [
    "ExperimentConfig",
    "STACKS",
    "build_conv_device",
    "build_device",
    "build_stack",
    "measure_job",
    "sweep_stacks",
    "KIB",
    "MIB",
]

KIB = 1024
MIB = 1024 * 1024

#: Storage-stack configurations compared in §III, in ascending order of
#: host overhead. The paper measures SPDK and the two io_uring setups;
#: "thrpool" is the xNVMe-style thread-pool async backend sitting
#: between them (DESIGN.md §14.2).
STACKS = ("spdk", "thrpool", "iouring-none", "iouring-mq-deadline")


def sweep_stacks(config: "ExperimentConfig") -> tuple[str, ...]:
    """The stacks a sweep should cover: ``config.stacks`` or all of them."""
    if config.stacks is None:
        return STACKS
    chosen = tuple(config.stacks)
    unknown = [name for name in chosen if name not in STACKS]
    if unknown:
        raise ValueError(
            f"unknown stack(s) {unknown!r} (choose from {STACKS})"
        )
    return chosen


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale/seed knobs shared by all experiment drivers."""

    seed: int = 0x5EED
    #: Simulated duration of one measured point.
    point_runtime_ns: int = ms(6)
    ramp_ns: int = ms(1)
    #: Zones per occupancy level in the reset/finish sweeps (§III-E).
    zones_per_level: int = 12
    #: Zones swept by each reset-interference configuration (§III-G).
    interference_reset_zones: int = 40
    #: Simulated duration of the Fig. 6 interference timelines.
    interference_runtime_ns: int = ms(1_800)
    #: Zones kept on the simulated ZNS device (latency-irrelevant).
    num_zones: int = 64
    #: Restrict the stack-comparison sweeps (fig2a/fig2b) to a subset of
    #: :data:`STACKS`, or ``None`` for all of them. Stored as the plain
    #: name tuple so it participates in the cache key and ships to
    #: workers (``repro run --stack``). Experiments pinned to a specific
    #: stack (scalability, QD sweeps) ignore it.
    stacks: Optional[tuple] = None
    #: Optional observability hooks threaded into every device the
    #: experiment builds. Excluded from repr/compare so configs stay
    #: hashable-by-value and byte-identical output is easy to verify.
    tracer: Optional[Tracer] = field(default=None, repr=False, compare=False)
    metrics: Optional[MetricsRegistry] = field(
        default=None, repr=False, compare=False
    )
    #: Fault-injection spec: a preset name or profile path understood by
    #: :func:`repro.faults.resolve`. Kept as the *spec string* so configs
    #: ship to workers as plain JSON; the result cache keys on the
    #: resolved plan instead, so editing a profile file invalidates it.
    faults: Optional[str] = None
    #: Serving tenants sharing the fleet device (``fig7_fleet``); the
    #: reclaim antagonist is an extra tenant on top of these.
    fleet_tenants: int = 3
    #: Simulated duration of one fleet point.
    fleet_runtime_ns: int = ms(30)
    #: Telemetry sampling interval in simulated nanoseconds, or ``None``
    #: (the default) for no time-resolved sampling. Like ``faults`` this
    #: is the plain scalar — it participates in the cache key and ships
    #: to worker processes — while the live collector below is runtime
    #: state the execution engine installs per point.
    telemetry_interval_ns: Optional[int] = None
    #: Live :class:`~repro.obs.telemetry.TelemetryCollector` every device
    #: built for the current point attaches to. Excluded from
    #: repr/compare (and from the cache key) like the tracer/metrics
    #: hooks above.
    telemetry: Optional[object] = field(default=None, repr=False, compare=False)

    def scaled(self, duration_scale: float) -> "ExperimentConfig":
        """Stretch all durations/sweep sizes by a factor."""
        if duration_scale <= 0:
            raise ValueError("duration_scale must be positive")
        return replace(
            self,
            point_runtime_ns=round(self.point_runtime_ns * duration_scale),
            ramp_ns=round(self.ramp_ns * duration_scale),
            zones_per_level=max(1, round(self.zones_per_level * duration_scale)),
            interference_reset_zones=max(
                4, round(self.interference_reset_zones * duration_scale)
            ),
            interference_runtime_ns=round(
                self.interference_runtime_ns * duration_scale
            ),
            fleet_runtime_ns=round(self.fleet_runtime_ns * duration_scale),
        )


def build_device(
    config: ExperimentConfig,
    lba_format: LbaFormat = LBA_4K,
    profile: DeviceProfile | None = None,
    seed_salt: str = "",
) -> tuple[Simulator, ZnsDevice]:
    """A fresh simulator + calibrated ZN540 device.

    ``seed_salt`` namespaces the device's random streams (see
    :class:`StreamFactory`); sweeps that build one device per point pass
    the point label so points stay independent of sweep order.
    """
    sim = Simulator()
    profile = profile or zn540(num_zones=config.num_zones)
    device = ZnsDevice(
        sim, profile, lba_format=lba_format,
        streams=StreamFactory(config.seed, salt=seed_salt),
        tracer=config.tracer, metrics=config.metrics,
        faults=resolve(config.faults),
        telemetry=config.telemetry,
    )
    return sim, device


def build_conv_device(
    config: ExperimentConfig, profile: DeviceProfile, **kw
) -> tuple[Simulator, ConvDevice]:
    """A fresh simulator + conventional (page-mapped FTL) device.

    Carries the same hooks as :func:`build_device` (tracer, metrics,
    faults, telemetry), so conventional points show up in traces,
    ``--metrics`` and telemetry like ZNS ones; ``kw`` reaches
    :class:`ConvDevice` (e.g. ``gc_priority``).
    """
    sim = Simulator()
    device = ConvDevice(
        sim, profile, lba_format=LBA_4K,
        streams=StreamFactory(config.seed),
        tracer=config.tracer, metrics=config.metrics,
        faults=resolve(config.faults),
        telemetry=config.telemetry,
        **kw,
    )
    return sim, device


def build_stack(device, stack_name: str):
    """Instantiate one of the compared stack configurations."""
    if stack_name == "spdk":
        return SpdkStack(device)
    if stack_name == "thrpool":
        return ThreadPoolStack(device)
    if stack_name == "iouring-none":
        return IoUringStack(device, scheduler="none")
    if stack_name == "iouring-mq-deadline":
        return IoUringStack(device, scheduler="mq-deadline")
    raise ValueError(f"unknown stack {stack_name!r} (choose from {STACKS})")


def measure_job(device, stack_name: str, job: JobSpec) -> JobResult:
    """Run one job to completion on a device and return its metrics."""
    stack = build_stack(device, stack_name)
    return JobRunner(device, stack, job).run()
