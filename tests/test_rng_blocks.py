"""Scalar jitter draws against a block-drawing reference.

``LatencySampler`` draws one jitter factor per call. An earlier sampler
pre-drew factors in refillable blocks; ``Generator.normal(size=N)`` is
bit-identical to N sequential scalar draws, so the scalar sampler must
reproduce that block sampler exactly, whatever its block size (the
draw-order contract, DESIGN.md §15). ``_BlockSampler`` keeps the block
sampler as a reference. These tests pin the equivalence at two levels:
the raw sampler sequence, and whole serial experiment artifacts (with
and without chaos fault injection) run on the reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec import execute_experiments
from repro.sim.rng import LatencySampler, StreamFactory

from .test_exec import results_blob, tiny_config

BLOCKS = (1, 16, 4096)


class _BlockSampler:
    """The block-drawing jitter sampler the scalar one replaced."""

    def __init__(self, rng: np.random.Generator, sigma: float, block: int):
        self._rng = rng
        self._sigma = float(sigma)
        self._block = block
        self._factors: list[float] = []
        self._cursor = 0

    def jitter(self, nominal_ns: int) -> int:
        if nominal_ns < 0:
            raise ValueError(f"nominal latency must be >= 0, got {nominal_ns}")
        if self._sigma == 0.0 or nominal_ns == 0:
            return int(nominal_ns)
        cursor = self._cursor
        if cursor == len(self._factors):
            self._factors = np.exp(
                self._rng.normal(0.0, self._sigma, size=self._block)
            ).tolist()
            cursor = 0
        self._cursor = cursor + 1
        return max(1, round(nominal_ns * self._factors[cursor]))


def _stream() -> np.random.Generator:
    return StreamFactory(seed=7).stream("jitter")


class TestSamplerDrawOrder:
    def test_block_size_never_changes_draws(self):
        # Span several refills of every block size (including many
        # refills at block=1 and a partial final block at 4096), with
        # zero nominals in the mix (they consume no draw).
        nominals = [100, 10_000, 0, 1_000_000] * 3_000
        scalar = LatencySampler(_stream(), sigma=0.05)
        draws = [scalar.jitter(n) for n in nominals]
        for block in (1, 16, 256, 4096):
            reference = _BlockSampler(_stream(), 0.05, block)
            assert [reference.jitter(n) for n in nominals] == draws, (
                f"block={block} diverged")

    def test_batched_normal_matches_scalar_draws(self):
        # The numpy guarantee the whole design rests on.
        batched = np.random.default_rng(42).normal(0.0, 1.0, size=64)
        scalar_rng = np.random.default_rng(42)
        scalars = [scalar_rng.normal(0.0, 1.0) for _ in range(64)]
        assert batched.tolist() == scalars


def _run_blob(monkeypatch, block, faults=None) -> str:
    """fig2a's artifacts with every sampler's draws served by a
    ``_BlockSampler`` of ``block`` on the sampler's own stream."""
    references: dict[LatencySampler, _BlockSampler] = {}

    def jitter(self: LatencySampler, nominal_ns: int) -> int:
        reference = references.get(self)
        if reference is None:
            reference = references[self] = _BlockSampler(
                self._rng, self.sigma, block)
        return reference.jitter(nominal_ns)

    monkeypatch.setattr(LatencySampler, "jitter", jitter)
    config = tiny_config() if faults is None else tiny_config(faults=faults)
    results, _report = execute_experiments(["fig2a"], config, jobs=1)
    assert references, "no sampler drew through the reference"
    return results_blob(results)


class TestExperimentIdentity:
    @pytest.fixture(scope="class")
    def reference(self):
        blobs = {}
        for faults in (None, "chaos"):
            config = (tiny_config() if faults is None
                      else tiny_config(faults=faults))
            results, _ = execute_experiments(["fig2a"], config, jobs=1)
            blobs[faults] = results_blob(results)
        return blobs

    @pytest.mark.parametrize("block", BLOCKS)
    def test_serial_artifacts_identical(self, block, reference, monkeypatch):
        assert _run_blob(monkeypatch, block=block) == reference[None]

    @pytest.mark.parametrize("block", (1, 4096))
    def test_chaos_artifacts_identical(self, block, reference, monkeypatch):
        assert (_run_blob(monkeypatch, block=block, faults="chaos")
                == reference["chaos"])
