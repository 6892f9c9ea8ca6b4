"""Deterministic random-number streams for simulation components.

Every stochastic component (latency jitter, workload address generators)
draws from its **own named stream** derived from a single root seed. This
keeps runs exactly reproducible and — critically for experiments — makes
one component's draw count independent of another's, so adding a reader
thread does not perturb the writer's address sequence.
"""

from __future__ import annotations

import numpy as np

__all__ = ["StreamFactory", "LatencySampler"]


class StreamFactory:
    """Hands out independent, named ``numpy.random.Generator`` streams.

    ``salt`` namespaces every stream: two factories with the same seed
    but different salts produce unrelated streams for the same name.
    Sweeps that build one device per point use the point's label as the
    salt so points draw independent jitter without perturbing each
    other. An empty salt (the default) leaves stream derivation exactly
    as it was before salting existed.
    """

    def __init__(self, seed: int = 0x5EED, salt: str = ""):
        self._seed = int(seed)
        self._salt = salt

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def salt(self) -> str:
        return self._salt

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name`` (same name → same stream)."""
        if self._salt:
            name = f"{self._salt}/{name}"
        child = np.random.SeedSequence(
            entropy=self._seed, spawn_key=tuple(name.encode("utf-8"))
        )
        return np.random.default_rng(child)


class LatencySampler:
    """Samples service-time jitter around a nominal latency.

    Real device latencies are tightly clustered around a mode with a small
    right tail. We model jitter as a lognormal multiplier with unit median,
    parameterized by ``sigma`` (0 disables jitter entirely, which the
    deterministic emulator models use).
    """

    __slots__ = ("_rng", "_sigma")

    def __init__(self, rng: np.random.Generator, sigma: float = 0.03):
        if sigma < 0:
            raise ValueError(f"jitter sigma must be >= 0, got {sigma}")
        self._rng = rng
        self._sigma = float(sigma)

    @property
    def sigma(self) -> float:
        return self._sigma

    def jitter(self, nominal_ns: int) -> int:
        """Return ``nominal_ns`` scaled by one jitter draw (>= 1 ns)."""
        if nominal_ns < 0:
            raise ValueError(f"nominal latency must be >= 0, got {nominal_ns}")
        if self._sigma == 0.0 or nominal_ns == 0:
            return int(nominal_ns)
        # numpy's exp, not math.exp: they can differ in the last ulp,
        # which can move a rounded nanosecond.
        factor = float(np.exp(self._rng.normal(0.0, self._sigma)))
        return max(1, round(nominal_ns * factor))
