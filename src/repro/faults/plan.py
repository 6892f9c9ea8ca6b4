"""Deterministic fault plans and the seed-driven fault injector.

A :class:`FaultPlan` is a frozen, JSON-serializable description of *what
can go wrong* during a run: NAND media error rates (read disturb,
program failures, erase failures), firmware retirement thresholds, an
optional scheduled power cut against the capacitor-backed write buffer,
and host-side resilience policy (command timeout, bounded retry).

A :class:`FaultInjector` binds a plan to one device's named RNG stream
(``streams.stream("faults")``) and to the device's metrics registry.
Because every device already owns a per-point-salted
:class:`~repro.sim.rng.StreamFactory`, fault draws are independent of
worker count and scheduling order: a fault run is bit-reproducible at
any ``--jobs`` value.

The disabled case is load-bearing: ``resolve(None)`` / ``resolve("none")``
return ``None``, devices skip every hook, and **zero extra events and
zero RNG draws** are added — output stays byte-identical to a build
without this module (DESIGN.md §12).
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from typing import Optional

from ..sim.engine import ms, us
from ..sim.rng import BlockDraws
from .wear import WearCurve, WearTracker

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "FaultPlanError",
    "NULL_FAULT_PLAN",
    "FAULT_PRESETS",
    "WearCurve",
    "resolve",
    "describe_presets",
]

KIB = 1024

#: Extra erase attempts before a block is declared bad.
ERASE_RETRY_MAX = 2

_CURVE_FIELDS = ("read_disturb_curve", "program_fail_curve",
                 "erase_fail_curve")


class FaultPlanError(ValueError):
    """Raised for unknown presets, bad JSON profiles, or invalid fields."""


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic description of injected faults for one run.

    Each media fault has one knob, a :class:`WearCurve` giving its
    per-operation probability by wear. The default ``WearCurve()`` is
    never armed; a plan whose every knob is inert reports
    ``enabled == False`` and behaves exactly like no plan at all (the
    ``NullFaultPlan`` of DESIGN.md §12).
    """

    name: str = "none"

    # -- media: reads ----------------------------------------------------
    #: Probability a page read hits a read-disturb soft error and enters
    #: the firmware read-retry ladder, as a function of the unit's wear
    #: (erase count plus read exposure, below).
    read_disturb_curve: WearCurve = WearCurve()
    #: Maximum ladder depth: each retry re-senses the page (one extra
    #: ``read_ns`` with the die held).
    read_retry_max: int = 3
    #: Fraction of disturbed reads that exhaust the full ladder and stay
    #: uncorrectable — the host sees ``MEDIA_UNRECOVERED_READ`` (DNR).
    read_uncorrectable_frac: float = 0.0
    #: Read-disturb exposure: every N reads of a unit since its last
    #: erase add one effective erase of wear to the read curve's input
    #: (0 = reads don't disturb). The exposure counter resets on erase.
    read_disturb_exposure_reads: int = 0

    # -- media: programs -------------------------------------------------
    #: Probability a page program fails, by the unit's erase count; the
    #: firmware remaps and retries on the same die (each failure costs
    #: one extra ``program_ns``).
    program_fail_curve: WearCurve = WearCurve()
    #: Cap on consecutive program failures absorbed per page.
    program_retry_max: int = 3

    # -- media: erases ---------------------------------------------------
    #: Probability a block erase attempt fails (retried in firmware up
    #: to ``ERASE_RETRY_MAX`` times), by the unit's erase count.
    erase_fail_curve: WearCurve = WearCurve()

    # -- firmware retirement (ZNS) ---------------------------------------
    #: Cumulative program failures in a zone after which the firmware
    #: retires it to ``READ_ONLY`` (0 = never).
    retire_read_only_after: int = 0
    #: ... and after which it goes ``OFFLINE`` (0 = never).
    retire_offline_after: int = 0
    #: Wear-threshold retirement: zone erase counts at which the
    #: firmware retires the zone to ``READ_ONLY`` / ``OFFLINE``
    #: regardless of observed failures (0 = never). This is how an aged
    #: device sheds capacity even before programs start failing.
    retire_read_only_erases: int = 0
    retire_offline_erases: int = 0

    # -- power loss ------------------------------------------------------
    #: Simulated time (ns) of a single power-cut event (None = never).
    power_cut_at_ns: Optional[int] = None
    #: Capacitor energy budget: bytes of queued-but-unprogrammed buffer
    #: the PLP capacitors can still flush; the rest of the tail is lost.
    #: (In-flight NAND programs always complete on capacitor energy.)
    plp_budget_bytes: int = 0

    # -- host resilience policy ------------------------------------------
    #: Host-side command timeout (None = wait forever, today's behavior).
    command_timeout_ns: Optional[int] = None
    #: Bounded retries for completions with a retryable status.
    max_retries: int = 3
    #: Base backoff before a retry; doubles per attempt.
    retry_backoff_ns: int = us(50)

    def __post_init__(self):
        if not 0.0 <= self.read_uncorrectable_frac <= 1.0:
            raise FaultPlanError(
                "read_uncorrectable_frac must be in [0, 1], "
                f"got {self.read_uncorrectable_frac!r}")
        for field in ("read_retry_max", "program_retry_max", "max_retries",
                      "read_disturb_exposure_reads"):
            if getattr(self, field) < 0:
                raise FaultPlanError(f"{field} must be >= 0")
        for field in _CURVE_FIELDS:
            curve = getattr(self, field)
            if not isinstance(curve, WearCurve):
                raise FaultPlanError(
                    f"{field} must be a WearCurve, got {type(curve).__name__}")
        for low, high in (("retire_read_only_after", "retire_offline_after"),
                          ("retire_read_only_erases", "retire_offline_erases")):
            lo, hi = getattr(self, low), getattr(self, high)
            if lo < 0 or hi < 0:
                raise FaultPlanError(f"{low}/{high} must be >= 0")
            if 0 < hi <= lo:
                raise FaultPlanError(
                    f"{high} ({hi}) must exceed {low} ({lo}): zones would "
                    "skip READ_ONLY and go straight OFFLINE")
        if self.power_cut_at_ns is not None and self.power_cut_at_ns < 0:
            raise FaultPlanError("power_cut_at_ns must be >= 0")

    @property
    def enabled(self) -> bool:
        """True if any fault source or host policy is armed."""
        return (
            self.media_enabled
            or self.power_cut_at_ns is not None
            or self.command_timeout_ns is not None
            or self.retire_read_only_erases > 0
            or self.retire_offline_erases > 0
        )

    @property
    def erase_faults_enabled(self) -> bool:
        """True if block erases can fail — the conventional FTL reserves
        its bad-block spare pool iff so."""
        return self.erase_fail_curve.armed

    @property
    def media_enabled(self) -> bool:
        return (self.read_disturb_curve.armed
                or self.program_fail_curve.armed
                or self.erase_fail_curve.armed)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


#: The canonical disabled plan (every hook inert).
NULL_FAULT_PLAN = FaultPlan()

#: Named presets selectable via ``repro run --faults <name>``.
FAULT_PRESETS: dict[str, FaultPlan] = {
    "none": NULL_FAULT_PLAN,
    # Aging NAND: frequent read-disturb retries, a small uncorrectable
    # residue — the latency-tail profile of Tehrany et al.'s worn drives.
    # The disturb rate is wear-dependent: it climbs with erase count and
    # with read exposure since the last erase (DESIGN.md §17).
    "read-disturb": FaultPlan(
        name="read-disturb",
        read_retry_max=4,
        read_uncorrectable_frac=0.02,
        read_disturb_curve=WearCurve(base=0.05, knee=4, slope=0.01, cap=0.5),
        read_disturb_exposure_reads=64,
    ),
    # End-of-life media: program/erase failures drive remaps and, on the
    # ZNS side, zone retirement to READ_ONLY and then OFFLINE. The
    # failure rates climb with erase count past the knee, and heavily
    # cycled zones retire on erase-count thresholds alone.
    "wearout": FaultPlan(
        name="wearout",
        program_retry_max=2,
        retire_read_only_after=6,
        retire_offline_after=12,
        program_fail_curve=WearCurve(base=0.02, knee=8, slope=0.004, cap=0.30),
        erase_fail_curve=WearCurve(base=0.01, knee=8, slope=0.002, cap=0.20),
        retire_read_only_erases=48,
        retire_offline_erases=96,
    ),
    # A single mid-run power cut with a small PLP budget: the queued
    # write-buffer tail is dropped and recovery is replayed on boot.
    "power-cut": FaultPlan(
        name="power-cut",
        power_cut_at_ns=ms(2),
        plp_budget_bytes=256 * KIB,
    ),
    # Everything at once, plus an aggressive host timeout: the sweep
    # must still terminate with degraded-mode accounting.
    "chaos": FaultPlan(
        name="chaos",
        read_disturb_curve=WearCurve(base=0.10),
        read_retry_max=4,
        read_uncorrectable_frac=0.05,
        program_fail_curve=WearCurve(base=0.05),
        program_retry_max=2,
        erase_fail_curve=WearCurve(base=0.02),
        retire_read_only_after=16,
        retire_offline_after=40,
        power_cut_at_ns=ms(2),
        plp_budget_bytes=128 * KIB,
        command_timeout_ns=ms(2),
        max_retries=2,
        retry_backoff_ns=us(20),
    ),
}

_PRESET_NOTES = {
    "none": "no faults (byte-identical to running without --faults)",
    "read-disturb": "wear-rising read-retry ladders + a 2% uncorrectable residue",
    "wearout": "wear-rising program/erase failures with zone retirement",
    "power-cut": "one power cut at t=2ms, 256 KiB PLP budget",
    "chaos": "all media faults + power cut + 2ms host command timeout",
}

_PLAN_FIELDS = {f.name for f in dataclasses.fields(FaultPlan)}


def _load_profile(path: str) -> FaultPlan:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as error:
        raise FaultPlanError(f"cannot read fault profile {path!r}: {error}") from error
    if not isinstance(data, dict):
        raise FaultPlanError(f"fault profile {path!r} must be a JSON object")
    unknown = sorted(set(data) - _PLAN_FIELDS)
    if unknown:
        raise FaultPlanError(
            f"fault profile {path!r} has unknown fields: {', '.join(unknown)}")
    for field in _CURVE_FIELDS:
        if field in data:
            try:
                data[field] = WearCurve.from_dict(data[field])
            except (TypeError, ValueError) as error:
                raise FaultPlanError(
                    f"fault profile {path!r} field {field}: {error}"
                ) from error
    data.setdefault("name", os.path.splitext(os.path.basename(path))[0])
    return FaultPlan(**data)


def resolve(spec: Optional[str]) -> Optional[FaultPlan]:
    """Map a ``--faults`` value (preset name or JSON path) to a plan.

    Returns ``None`` when the spec selects no faults, so callers can use
    plain ``is None`` checks on their hot paths.
    """
    if spec is None or spec == "":
        return None
    plan = FAULT_PRESETS.get(spec)
    if plan is None:
        if spec.endswith(".json") or os.path.sep in spec or os.path.exists(spec):
            plan = _load_profile(spec)
        else:
            known = ", ".join(sorted(FAULT_PRESETS))
            raise FaultPlanError(
                f"unknown fault preset {spec!r} (known: {known}; "
                "or pass a path to a JSON profile)")
    return plan if plan.enabled else None


def describe_presets() -> list[tuple[str, str]]:
    """(name, description) pairs for ``repro faults list``."""
    return [(name, _PRESET_NOTES.get(name, "")) for name in FAULT_PRESETS]


class FaultInjector:
    """Binds a :class:`FaultPlan` to a device's RNG stream and metrics.

    One injector per device instance. All draws come from the device's
    ``"faults"`` stream (per-point salted by the execution engine), in a
    fixed per-operation order, so outcomes depend only on (seed, salt,
    operation sequence) — never on worker count or wall-clock timing.
    """

    def __init__(self, plan: FaultPlan, rng, metrics):
        self.plan = plan
        self._draws = BlockDraws(rng)
        #: Per-unit lifetime state (ZNS zones / conv blocks). Owned here
        #: so the flash backend and both FTLs share one odometer per
        #: device, and devices can snapshot/restore it (DESIGN.md §17).
        self.wear = WearTracker()
        counter = metrics.counter
        self.injected = counter("faults.injected")
        self.read_disturbs = counter("faults.read_disturbs")
        self.read_retries = counter("faults.read_retries")
        self.read_uncorrectable = counter("faults.read_uncorrectable")
        self.program_failures = counter("faults.program_failures")
        self.erase_retries = counter("faults.erase_retries")
        self.erase_failures = counter("faults.erase_failures")
        self.zones_read_only = counter("faults.zones_read_only")
        self.zones_offlined = counter("faults.zones_offlined")
        self.bad_blocks_remapped = counter("faults.bad_blocks_remapped")
        self.power_cuts = counter("faults.power_cuts")
        self.bytes_lost = counter("faults.bytes_lost")
        self.recovery_ns = counter("faults.recovery_ns")
        self.max_erase_count = metrics.gauge("faults.max_erase_count")

    def _u(self) -> float:
        return self._draws.uniform01()

    # -- wear bookkeeping ------------------------------------------------
    def note_erase(self, wear) -> None:
        """Record one successful erase of a unit: odometer up, read
        exposure back to zero, high-watermark gauge refreshed."""
        wear.erase_count += 1
        wear.reads_since_erase = 0
        if wear.erase_count > self.max_erase_count.value:
            self.max_erase_count.set(wear.erase_count)

    def _read_prob(self, wear) -> float:
        plan = self.plan
        curve = plan.read_disturb_curve
        if wear is None:
            return curve.value(0)
        exposure = wear.erase_count
        window = plan.read_disturb_exposure_reads
        if window > 0:
            exposure += wear.reads_since_erase // window
        return curve.value(exposure)

    @staticmethod
    def _erase_count_prob(curve: WearCurve, wear) -> float:
        return curve.value(wear.erase_count if wear is not None else 0)

    # -- per-operation outcomes ------------------------------------------
    def read_outcome(self, wear=None) -> tuple[int, bool]:
        """(extra retry senses, uncorrectable?) for one page read.

        ``wear`` is the touched unit's odometer: its erase count (plus
        read exposure) selects the disturb probability, and the read
        itself bumps the exposure counter.
        """
        plan = self.plan
        prob = self._read_prob(wear)
        if wear is not None:
            wear.reads_since_erase += 1
        if prob <= 0.0 or self._u() >= prob:
            return 0, False
        self.injected.inc()
        self.read_disturbs.inc()
        if (plan.read_uncorrectable_frac > 0.0
                and self._u() < plan.read_uncorrectable_frac):
            # The ladder runs to exhaustion and still fails.
            self.read_retries.inc(plan.read_retry_max)
            self.read_uncorrectable.inc()
            return plan.read_retry_max, True
        if plan.read_retry_max <= 0:
            return 0, False
        retries = 1 + int(self._u() * plan.read_retry_max)
        retries = min(retries, plan.read_retry_max)
        self.read_retries.inc(retries)
        return retries, False

    def program_outcome(self, wear=None) -> int:
        """Number of failed program attempts before one page sticks.

        ``wear`` only *selects* the probability here; the caller folds
        the returned failures into the odometer at completion time so
        accumulation and retirement checks stay atomic per flush.
        """
        plan = self.plan
        prob = self._erase_count_prob(plan.program_fail_curve, wear)
        if prob <= 0.0:
            return 0
        failures = 0
        while failures < plan.program_retry_max and self._u() < prob:
            failures += 1
        if failures:
            self.injected.inc(failures)
            self.program_failures.inc(failures)
        return failures

    def erase_outcome(self, wear=None) -> tuple[int, bool]:
        """(extra erase attempts, block went bad?) for one block erase."""
        prob = self._erase_count_prob(self.plan.erase_fail_curve, wear)
        if prob <= 0.0:
            return 0, False
        retries = 0
        while retries < ERASE_RETRY_MAX and self._u() < prob:
            retries += 1
        if retries:
            self.injected.inc(retries)
            self.erase_retries.inc(retries)
        failed = retries == ERASE_RETRY_MAX
        if failed:
            self.erase_failures.inc()
        return retries, failed
