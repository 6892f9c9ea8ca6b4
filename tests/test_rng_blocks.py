"""Block-served draws against the scalar ``Generator`` calls they replace.

``BlockDraws`` takes each stream's per-operation draws from blocks of
``BLOCK`` values, one vectorized numpy call per block, and must hand out
exactly the values the scalar calls would have returned, whatever the
block size (the draw-order contract, DESIGN.md §15.3). The references
here are the scalar calls themselves. The tests pin the equivalence at
three levels: hypothesis properties of the helper against twin scalar
streams, the jitter sampler's sequence, and whole serial experiment
artifacts (with and without chaos fault injection) with every draw
served by scalar calls.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.rng as rng_module
from repro.exec import execute_experiments
from repro.sim.rng import BlockDraws, LatencySampler, StreamFactory

from .test_exec import results_blob, tiny_config

BLOCKS = (1, 16, 4096)
#: fig2a draws jitter only (and fault variates under chaos); fig4b adds
#: random-read offsets and multi-zone append picks.
EXPERIMENTS = ("fig2a", "fig4b")
UINT32 = 2**32

#: Bounds at the edges of numpy's 32-bit path: one value (no draw), the
#: full 32-bit range (no rejection), and ranges that reject often.
EDGE_BOUNDS = (1, 2, 3, 2**31, 2**31 + 1, UINT32 - 1, UINT32, 3 * 10**9)


class _ScalarSampler:
    """The jitter sampler as one scalar draw per call."""

    def __init__(self, rng: np.random.Generator, sigma: float):
        self._rng = rng
        self._sigma = float(sigma)

    def jitter(self, nominal_ns: int) -> int:
        if nominal_ns < 0:
            raise ValueError(f"nominal latency must be >= 0, got {nominal_ns}")
        if self._sigma == 0.0 or nominal_ns == 0:
            return int(nominal_ns)
        factor = float(np.exp(self._rng.normal(0.0, self._sigma)))
        return max(1, round(nominal_ns * factor))


def _stream() -> np.random.Generator:
    return StreamFactory(seed=7).stream("jitter")


def _twins(seed: int, pending: bool):
    """Two generators in one state; with ``pending``, both hold the
    unused upper half of a 64-bit output for their next 32-bit draw."""
    pair = np.random.default_rng(seed), np.random.default_rng(seed)
    if pending:
        for rng in pair:
            rng.integers(0, 2)
    return pair


class TestSamplerDrawOrder:
    def test_block_size_never_changes_draws(self, monkeypatch):
        # Span several refills of every block size (including many
        # refills at block=1 and a partial final block at 4096), with
        # zero nominals in the mix (they consume no draw).
        nominals = [100, 10_000, 0, 1_000_000] * 3_000
        reference = _ScalarSampler(_stream(), sigma=0.05)
        draws = [reference.jitter(n) for n in nominals]
        for block in (1, 16, 256, 4096):
            monkeypatch.setattr(rng_module, "BLOCK", block)
            sampler = LatencySampler(_stream(), sigma=0.05)
            assert [sampler.jitter(n) for n in nominals] == draws, (
                f"block={block} diverged")

    def test_batched_normal_matches_scalar_draws(self):
        # The numpy guarantee the whole design rests on.
        batched = np.random.default_rng(42).normal(0.0, 1.0, size=64)
        scalar_rng = np.random.default_rng(42)
        scalars = [scalar_rng.normal(0.0, 1.0) for _ in range(64)]
        assert batched.tolist() == scalars


_bounds = st.one_of(st.sampled_from(EDGE_BOUNDS), st.integers(1, UINT32),
                    st.integers(1, 1000))


class TestBlockDrawsProperty:
    """The helper against twin numpy scalar calls on one seed."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), pending=st.booleans(),
           pattern=st.lists(_bounds, min_size=1, max_size=50),
           count=st.integers(1, 3 * 256 + 7))
    def test_below_matches_scalar(self, seed, pending, pattern, count):
        # The pattern repeats to ``count`` bounds, so most examples
        # cross block refills, some in the middle of a rejection loop.
        bounds = [pattern[i % len(pattern)] for i in range(count)]
        scalar, served = _twins(seed, pending)
        draws = BlockDraws(served)
        assert ([draws.below(n) for n in bounds]
                == [int(scalar.integers(0, n)) for n in bounds])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32), pending=st.booleans(),
           sigma=st.floats(1e-4, 2.0), count=st.integers(1, 3 * 256 + 7))
    def test_exp_normal_matches_scalar(self, seed, pending, sigma, count):
        scalar, served = _twins(seed, pending)
        draws = BlockDraws(served)
        assert ([draws.exp_normal(sigma) for _ in range(count)]
                == [float(np.exp(scalar.normal(0.0, sigma)))
                    for _ in range(count)])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32), pending=st.booleans(),
           count=st.integers(1, 3 * 256 + 7))
    def test_uniform01_matches_scalar(self, seed, pending, count):
        scalar, served = _twins(seed, pending)
        draws = BlockDraws(served)
        assert ([draws.uniform01() for _ in range(count)]
                == [scalar.random() for _ in range(count)])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16),
           first=st.sampled_from(["below", "uniform01", "exp_normal"]),
           second=st.sampled_from(["below", "uniform01", "exp_normal"]),
           sigma=st.floats(1e-3, 1.0))
    def test_switch_of_kind_or_sigma_raises(self, seed, first, second, sigma):
        draw = {"below": lambda d, s: d.below(10),
                "uniform01": lambda d, s: d.uniform01(),
                "exp_normal": lambda d, s: d.exp_normal(s)}
        draws = BlockDraws(np.random.default_rng(seed))
        draw[first](draws, sigma)
        if first == second:
            draw[second](draws, sigma)
            if first == "exp_normal":
                with pytest.raises(ValueError, match="desynchronize"):
                    draws.exp_normal(sigma * 2)
        else:
            with pytest.raises(ValueError, match="desynchronize"):
                draw[second](draws, sigma)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16),
           n=st.one_of(st.integers(UINT32 + 1, 2**64), st.integers(-5, 0)))
    def test_bound_outside_32_bits_raises(self, seed, n):
        draws = BlockDraws(np.random.default_rng(seed))
        with pytest.raises(ValueError, match="2\\*\\*32"):
            draws.below(n)


def _scalar_blob(monkeypatch, experiment, faults=None) -> str:
    """The experiment's artifacts with every ``BlockDraws`` value drawn
    by the scalar call it stands for, on the helper's own stream."""
    served = []

    def exp_normal(self, sigma):
        served.append(self)
        return float(np.exp(self._rng.normal(0.0, sigma)))

    monkeypatch.setattr(BlockDraws, "exp_normal", exp_normal)
    monkeypatch.setattr(BlockDraws, "uniform01", lambda self: self._rng.random())
    monkeypatch.setattr(BlockDraws, "below",
                        lambda self, n: int(self._rng.integers(0, n)))
    config = tiny_config() if faults is None else tiny_config(faults=faults)
    results, _report = execute_experiments([experiment], config, jobs=1)
    assert served, "no sampler drew through the scalar reference"
    return results_blob(results)


def _blob(monkeypatch, experiment, block, faults=None) -> str:
    monkeypatch.setattr(rng_module, "BLOCK", block)
    config = tiny_config() if faults is None else tiny_config(faults=faults)
    results, _report = execute_experiments([experiment], config, jobs=1)
    return results_blob(results)


class TestExperimentIdentity:
    @pytest.fixture(scope="class")
    def reference(self):
        blobs = {}
        with pytest.MonkeyPatch.context() as monkeypatch:
            for experiment in EXPERIMENTS:
                for faults in (None, "chaos"):
                    blobs[experiment, faults] = _scalar_blob(
                        monkeypatch, experiment, faults)
        return blobs

    @pytest.mark.parametrize("block", BLOCKS)
    def test_serial_artifacts_identical(self, block, reference, monkeypatch):
        for experiment in EXPERIMENTS:
            assert (_blob(monkeypatch, experiment, block)
                    == reference[experiment, None]), experiment

    @pytest.mark.parametrize("block", (1, 4096))
    def test_chaos_artifacts_identical(self, block, reference, monkeypatch):
        for experiment in EXPERIMENTS:
            assert (_blob(monkeypatch, experiment, block, faults="chaos")
                    == reference[experiment, "chaos"]), experiment

    def test_default_block_matches_scalar(self, reference):
        # The shipped block size, unpatched.
        for experiment in EXPERIMENTS:
            for faults in (None, "chaos"):
                config = (tiny_config() if faults is None
                          else tiny_config(faults=faults))
                results, _ = execute_experiments([experiment], config, jobs=1)
                assert results_blob(results) == reference[experiment, faults]
