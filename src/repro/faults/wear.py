"""Wear-dependent lifetime model: curves, per-unit wear state, tracking.

A fresh device and a five-year-old device fail differently. This module
gives :mod:`repro.faults` the state to tell them apart:

* :class:`WearCurve` — a tiny parametric map from a wear measure
  (erase count) to a probability: flat at ``base`` until ``knee``
  erases, then rising by ``slope`` per erase, clamped to ``cap``. It is
  the only spelling of a media fault's probability in a plan; a curve
  with ``slope == 0`` is a constant rate ``base``.
* :class:`UnitWear` — one erase unit's lifetime odometer (a zone on the
  ZNS device, a block on the conventional FTL): erase count, cumulative
  program failures, and reads since the last erase (the read-disturb
  exposure counter, reset by erase).
* :class:`WearTracker` — lazy unit-keyed store with snapshot/restore,
  so multi-point plans that roll a device back also roll its age back.

Everything here is plain arithmetic on integers the device feeds in;
nothing touches the RNG or the event heap.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["WearCurve", "UnitWear", "WearTracker"]


@dataclass(frozen=True)
class WearCurve:
    """Piecewise-linear probability-vs-wear curve: base / knee / slope.

    ``value(w)`` is ``base`` for ``w <= knee`` and grows linearly at
    ``slope`` per unit of wear beyond the knee, clamped to ``cap``.
    JSON-round-trippable via :meth:`to_dict` / :meth:`from_dict`, so it
    flows through fault profiles and experiment cache keys unchanged.
    """

    base: float = 0.0
    knee: int = 0
    slope: float = 0.0
    cap: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.base <= 1.0:
            raise ValueError(f"curve base must be in [0, 1], got {self.base!r}")
        if not 0.0 <= self.cap <= 1.0:
            raise ValueError(f"curve cap must be in [0, 1], got {self.cap!r}")
        if self.base > self.cap:
            raise ValueError(
                f"curve base {self.base!r} exceeds cap {self.cap!r}")
        if self.knee < 0:
            raise ValueError(f"curve knee must be >= 0, got {self.knee!r}")
        if self.slope < 0.0:
            raise ValueError(f"curve slope must be >= 0, got {self.slope!r}")

    @property
    def armed(self) -> bool:
        """True if the curve can ever produce a nonzero probability."""
        return self.base > 0.0 or (self.slope > 0.0 and self.cap > 0.0)

    def value(self, wear: int) -> float:
        """Probability at ``wear`` erases (monotone nondecreasing)."""
        if wear <= self.knee or self.slope == 0.0:
            return self.base
        return min(self.cap, self.base + self.slope * (wear - self.knee))

    def to_dict(self) -> dict:
        return {"base": self.base, "knee": self.knee,
                "slope": self.slope, "cap": self.cap}

    @classmethod
    def from_dict(cls, data: dict) -> "WearCurve":
        if not isinstance(data, dict):
            raise ValueError(f"wear curve must be a JSON object, got {data!r}")
        unknown = sorted(set(data) - {"base", "knee", "slope", "cap"})
        if unknown:
            raise ValueError(
                f"wear curve has unknown fields: {', '.join(unknown)}")
        return cls(**data)


class UnitWear:
    """Lifetime odometer for one erase unit (ZNS zone / FTL block)."""

    __slots__ = ("erase_count", "program_failures", "reads_since_erase")

    def __init__(self, erase_count: int = 0, program_failures: int = 0,
                 reads_since_erase: int = 0):
        self.erase_count = erase_count
        self.program_failures = program_failures
        self.reads_since_erase = reads_since_erase

    def snapshot(self) -> list:
        return [self.erase_count, self.program_failures,
                self.reads_since_erase]

    def __repr__(self) -> str:  # debugging aid
        return (f"UnitWear(erase_count={self.erase_count}, "
                f"program_failures={self.program_failures}, "
                f"reads_since_erase={self.reads_since_erase})")


class WearTracker:
    """Unit-keyed wear store (zone index on ZNS, block id on conv).

    Units materialize lazily on first touch so a fault run that never
    erases pays nothing. :meth:`snapshot` / :meth:`restore` mirror the
    device ``state_snapshot`` protocol: snapshots are plain JSON-able
    lists and restoring replaces the whole store.
    """

    __slots__ = ("_units",)

    def __init__(self) -> None:
        self._units: dict[int, UnitWear] = {}

    def unit(self, key: int) -> UnitWear:
        wear = self._units.get(key)
        if wear is None:
            wear = UnitWear()
            self._units[key] = wear
        return wear

    def peek(self, key: int) -> UnitWear | None:
        """The unit's wear if it has any, without materializing it."""
        return self._units.get(key)

    def __len__(self) -> int:
        return len(self._units)

    def items(self):
        return self._units.items()

    def max_erase_count(self) -> int:
        if not self._units:
            return 0
        return max(w.erase_count for w in self._units.values())

    def snapshot(self) -> dict:
        return {str(key): wear.snapshot() for key, wear in self._units.items()}

    def restore(self, snapshot: dict) -> None:
        self._units = {
            int(key): UnitWear(*values) for key, values in snapshot.items()
        }
