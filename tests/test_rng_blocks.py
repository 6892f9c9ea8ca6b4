"""Jitter block-size independence: the sampler's block size is a pure
performance constant.

``LatencySampler`` pre-draws jitter factors in refillable blocks;
``Generator.normal(size=N)`` is bit-identical to N sequential scalar
draws, so the block size must never change a single simulated result
(the draw-order contract, DESIGN.md §15). These tests pin that down at
two levels: the raw sampler sequence, and whole serial experiment
artifacts (with and without chaos fault injection).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec import execute_experiments
from repro.sim.rng import DEFAULT_JITTER_BLOCK, LatencySampler, StreamFactory

from .test_exec import results_blob, tiny_config

BLOCKS = (1, 16, 4096)


def _fresh_sampler() -> LatencySampler:
    return LatencySampler(StreamFactory(seed=7).stream("jitter"), sigma=0.05)


class TestSamplerDrawOrder:
    def test_block_size_never_changes_draws(self, monkeypatch):
        # Span several refills of every block size (including many
        # refills at block=1 and a partial final block at 4096).
        nominals = [100, 10_000, 1_000_000] * 3_000
        reference = None
        for block in (1, 16, 256, 4096):
            monkeypatch.setattr("repro.sim.rng.DEFAULT_JITTER_BLOCK", block)
            sampler = _fresh_sampler()
            draws = [sampler.jitter(n) for n in nominals]
            if reference is None:
                reference = draws
            else:
                assert draws == reference, f"block={block} diverged"

    def test_batched_normal_matches_scalar_draws(self):
        # The numpy guarantee the whole design rests on.
        batched = np.random.default_rng(42).normal(0.0, 1.0, size=64)
        scalar_rng = np.random.default_rng(42)
        scalars = [scalar_rng.normal(0.0, 1.0) for _ in range(64)]
        assert batched.tolist() == scalars

    def test_default_block(self, monkeypatch):
        # A refill draws DEFAULT_JITTER_BLOCK factors, so patching the
        # constant (as every test here does) really varies the block.
        for block in (16, DEFAULT_JITTER_BLOCK):
            monkeypatch.setattr("repro.sim.rng.DEFAULT_JITTER_BLOCK", block)
            sampler = _fresh_sampler()
            sampler.jitter(100)
            assert len(sampler._factors) == block


def _run_blob(monkeypatch, block, faults=None) -> str:
    monkeypatch.setattr("repro.sim.rng.DEFAULT_JITTER_BLOCK", block)
    config = tiny_config() if faults is None else tiny_config(faults=faults)
    results, _report = execute_experiments(["fig2a"], config, jobs=1)
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
