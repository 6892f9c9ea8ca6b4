"""End-to-end determinism: same seed, same inputs → identical outputs.

The simulation uses an integer-nanosecond clock, deterministic event
ordering, and named RNG streams, so entire experiments must reproduce
byte-for-byte. These tests guard that property — it is what makes the
calibration gate and EXPERIMENTS.md numbers exact.
"""

from repro.core import ExperimentConfig
from repro.sim import ms
from repro.stacks import SpdkStack
from repro.workload import IoKind, JobRunner, JobSpec

from .util import make_device, run_experiment
from repro.zns.profiles import zn540_small


def fast_config():
    return ExperimentConfig(point_runtime_ns=ms(2), ramp_ns=ms(0.4),
                            zones_per_level=3, num_zones=16)


class TestExperimentDeterminism:
    def test_fig2a_reproduces_exactly(self):
        a = run_experiment("fig2a", fast_config())
        b = run_experiment("fig2a", fast_config())
        assert a.rows == b.rows

    def test_fig5a_reproduces_exactly(self):
        a = run_experiment("fig5a", fast_config())
        b = run_experiment("fig5a", fast_config())
        assert a.rows == b.rows

    def test_different_seeds_differ_but_stay_close(self):
        a = run_experiment("fig2a", fast_config())
        b = run_experiment("fig2a", ExperimentConfig(seed=99, point_runtime_ns=ms(2),
                                       ramp_ns=ms(0.4), num_zones=16))
        lat_a = a.value("latency_us", lba_format="4KiB", stack="spdk", op="write")
        lat_b = b.value("latency_us", lba_format="4KiB", stack="spdk", op="write")
        assert lat_a != lat_b  # different jitter draws
        assert abs(lat_a - lat_b) / lat_a < 0.02  # same device


class TestWorkloadDeterminism:
    def run_job(self, seed=5):
        # Jittered profile: determinism must hold *with* randomness on.
        profile = zn540_small()
        sim, dev = make_device(profile)
        job = JobSpec(op=IoKind.APPEND, block_size=4096, runtime_ns=ms(3),
                      iodepth=4, zones=[0, 1], seed=seed)
        result = JobRunner(dev, SpdkStack(dev), job).run()
        return result.ops, result.latency.mean_ns, sim.now

    def test_identical_runs(self):
        assert self.run_job() == self.run_job()

    def test_seed_changes_trace(self):
        assert self.run_job(seed=5) != self.run_job(seed=6)
