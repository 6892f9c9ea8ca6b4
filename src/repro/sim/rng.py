"""Deterministic random-number streams for simulation components.

Every stochastic component (latency jitter, workload address generators)
draws from its **own named stream** derived from a single root seed. This
keeps runs exactly reproducible and — critically for experiments — makes
one component's draw count independent of another's, so adding a reader
thread does not perturb the writer's address sequence.

Per-operation draws are served by :class:`BlockDraws`, which takes them
from its stream in blocks of :data:`BLOCK` values, each value equal to
the scalar ``Generator`` call it replaces (DESIGN.md §15.3).
"""

from __future__ import annotations

import numpy as np

__all__ = ["BLOCK", "BlockDraws", "StreamFactory", "LatencySampler"]

#: Values drawn per vectorized numpy call. The values served do not
#: depend on it; it only trades call overhead against values drawn but
#: never served when a stream ends mid-block.
BLOCK = 256

_UINT32 = 1 << 32
_LOW32 = _UINT32 - 1

# Draw kinds. A stream served by BlockDraws is bound to the first kind
# it draws; block draws of two kinds do not interleave like their
# scalar counterparts, so a switch would desynchronize the stream.
_NORMAL = "exp(normal)"
_UNIFORM = "random()"
_RAW32 = "integers(0, n)"


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


class BlockDraws:
    """Scalar draws from one ``Generator``, served from blocks.

    Each method returns exactly what its scalar counterpart on the same
    stream would have returned at that point of the sequence. The names
    differ from ``Generator``'s so that a scan for scalar draws
    (``tests/test_draw_sites.py``) tells the two apart:

    - :meth:`exp_normal` is ``float(np.exp(rng.normal(0.0, sigma)))``;
      ``Generator.normal(0.0, sigma, BLOCK)`` is the same sequence as
      ``BLOCK`` scalar calls, and ``np.exp`` maps each element alone.
    - :meth:`uniform01` is ``rng.random()``, drawn as a plain block.
    - :meth:`below` is ``int(rng.integers(0, n))`` for any
      ``1 <= n <= 2**32``. numpy draws such a bound from the stream's
      32-bit outputs with Lemire's multiply-and-reject method, so the
      block holds raw 32-bit outputs and the rejection runs here, one
      bound per call.

    The helper is bound to the first kind (and ``sigma``) it draws and
    raises ``ValueError`` on any other: blocks of two kinds would not
    interleave as the scalar calls did. Nothing else may draw from the
    ``Generator`` once the helper serves it, since the helper is up to
    one block ahead of the values it has handed out.
    """

    __slots__ = ("_rng", "_kind", "_sigma", "_values", "_pos")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._kind: str | None = None
        self._sigma = 0.0
        self._values: list = []
        #: Values of the current block handed out; ``BLOCK`` when the
        #: next draw starts a new block. With the generator's state it
        #: fixes how many values the stream has served.
        self._pos = BLOCK

    def _bind(self, kind: str, sigma: float = 0.0) -> None:
        if self._kind is None:
            self._kind, self._sigma = kind, sigma
        elif self._kind is not kind or self._sigma != sigma:
            raise ValueError(
                f"stream is bound to {self._kind} (sigma {self._sigma}); "
                f"drawing {kind} (sigma {sigma}) would desynchronize it")

    def exp_normal(self, sigma: float) -> float:
        """``float(np.exp(rng.normal(0.0, sigma)))``."""
        if self._kind is not _NORMAL or self._sigma != sigma:
            self._bind(_NORMAL, sigma)
        pos = self._pos
        if pos == BLOCK:
            # numpy's exp, not math.exp: they can differ in the last
            # ulp, which can move a rounded nanosecond.
            self._values = np.exp(self._rng.normal(0.0, sigma, BLOCK)).tolist()
            pos = 0
        self._pos = pos + 1
        return self._values[pos]

    def uniform01(self) -> float:
        """``rng.random()``."""
        if self._kind is not _UNIFORM:
            self._bind(_UNIFORM)
        pos = self._pos
        if pos == BLOCK:
            self._values = self._rng.random(BLOCK).tolist()
            pos = 0
        self._pos = pos + 1
        return self._values[pos]

    def _raw32(self) -> int:
        pos = self._pos
        if pos == BLOCK:
            self._values = self._rng.integers(
                0, _UINT32, BLOCK, dtype=np.uint32).tolist()
            pos = 0
        self._pos = pos + 1
        return self._values[pos]

    def below(self, n: int) -> int:
        """``int(rng.integers(0, n))`` for ``1 <= n <= 2**32``."""
        if self._kind is not _RAW32:
            self._bind(_RAW32)
        if not 1 < n < _UINT32:
            if n == 1:
                return 0  # numpy draws nothing for a one-value range
            if n == _UINT32:
                return self._raw32()
            raise ValueError(f"bound must be in [1, 2**32], got {n}")
        # numpy's buffered_bounded_lemire_uint32 with rng_excl = n. The
        # first raw draw is inlined; a rejection is rare.
        pos = self._pos
        if pos == BLOCK:
            m = self._raw32() * n
        else:
            self._pos = pos + 1
            m = self._values[pos] * n
        leftover = m & _LOW32
        if leftover < n:
            threshold = (_UINT32 - n) % n
            while leftover < threshold:
                m = self._raw32() * n
                leftover = m & _LOW32
        return m >> 32


class LatencySampler:
    """Samples service-time jitter around a nominal latency.

    Real device latencies are tightly clustered around a mode with a small
    right tail. We model jitter as a lognormal multiplier with unit median,
    parameterized by ``sigma`` (0 disables jitter entirely, which the
    deterministic emulator models use).
    """

    __slots__ = ("_draws", "_sigma")

    def __init__(self, rng: np.random.Generator, sigma: float = 0.03):
        if sigma < 0:
            raise ValueError(f"jitter sigma must be >= 0, got {sigma}")
        self._draws = BlockDraws(rng)
        self._sigma = float(sigma)

    def jitter(self, nominal_ns: int) -> int:
        """Return ``nominal_ns`` scaled by one jitter draw (>= 1 ns)."""
        if nominal_ns < 0:
            raise ValueError(f"nominal latency must be >= 0, got {nominal_ns}")
        if self._sigma == 0.0 or nominal_ns == 0:
            return int(nominal_ns)
        return max(1, round(nominal_ns * self._draws.exp_normal(self._sigma)))
