"""Integration tests: fast-config runs of the paper experiments.

These use a scaled-down :class:`ExperimentConfig` so the whole file runs
in tens of seconds; the benchmark harness runs the full-scale versions.
"""

import pytest

from repro.core import ExperimentConfig
from repro.core.observations import (
    check_obs1,
    check_obs2,
    check_obs4,
    check_obs9,
    check_obs10,
)
from repro.sim import ms

from .util import run_experiment


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(
        point_runtime_ns=ms(2.5),
        ramp_ns=ms(0.4),
        zones_per_level=4,
        interference_reset_zones=8,
        interference_runtime_ns=ms(300),
        num_zones=32,
    )


@pytest.fixture(scope="module")
def fig2a(config):
    return run_experiment("fig2a", config)


@pytest.fixture(scope="module")
def fig2b(config):
    return run_experiment("fig2b", config)


class TestFig2:
    def test_fig2a_covers_all_stack_format_combinations(self, fig2a):
        assert len(fig2a.rows) == 12  # 2 formats x (4 write stacks + 2 append)

    def test_obs1_lba_format_effect(self, fig2a):
        check = check_obs1(fig2a)
        assert check.passed, check.details

    def test_obs2_stack_ordering(self, fig2b):
        check = check_obs2(fig2b)
        assert check.passed, check.details

    def test_obs4_write_beats_append(self, fig2b):
        check = check_obs4(fig2b)
        assert check.passed, check.details

    def test_fig2b_spdk_anchors_match_paper(self, fig2b):
        write = fig2b.value("latency_us", lba_format="4KiB", stack="spdk", op="write")
        append = fig2b.value("latency_us", lba_format="4KiB", stack="spdk", op="append")
        assert write == pytest.approx(11.36, rel=0.03)
        assert append == pytest.approx(14.02, rel=0.03)

    def test_fig2b_mq_deadline_anchor(self, fig2b):
        mqd = fig2b.value(
            "latency_us", lba_format="4KiB", stack="iouring-mq-deadline", op="write"
        )
        assert mqd == pytest.approx(14.47, rel=0.03)


class TestStateMachineExperiments:
    def test_obs9_costs(self, config):
        result = run_experiment("obs9", config)
        check = check_obs9(result)
        assert check.passed, check.details
        open_us = result.value("latency_us", quantity="explicit open")
        assert open_us == pytest.approx(9.56, rel=0.15)

    def test_fig5_occupancy_effects(self, config):
        fig5a = run_experiment("fig5a", config)
        fig5b = run_experiment("fig5b", config)
        check = check_obs10(fig5a, fig5b)
        assert check.passed, check.details

    def test_fig5a_anchors(self, config):
        fig5a = run_experiment("fig5a", config)
        full = fig5a.value("reset_ms", occupancy="100%", finished_first=False)
        half = fig5a.value("reset_ms", occupancy="50%", finished_first=False)
        assert full == pytest.approx(16.19, rel=0.1)
        assert half == pytest.approx(11.60, rel=0.1)

    def test_fig5a_finished_zones_cost_more_than_unfinished(self, config):
        fig5a = run_experiment("fig5a", config)
        for occ in ("25%", "50%"):
            plain = fig5a.value("reset_ms", occupancy=occ, finished_first=False)
            finished = fig5a.value("reset_ms", occupancy=occ, finished_first=True)
            assert finished > plain

    def test_fig5b_anchors(self, config):
        fig5b = run_experiment("fig5b", config)
        low = fig5b.value("finish_ms", occupancy="<0.1%")
        high = fig5b.value("finish_ms", occupancy="~100%")
        assert low == pytest.approx(907.51, rel=0.15)
        assert high == pytest.approx(3.07, rel=0.15)

