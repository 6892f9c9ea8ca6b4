"""Tests for the shared device-core layer.

Covers the :class:`~repro.device.core.DeviceCore` extraction: ZNS/conv
parity of the shared pipeline (one definition of the controller service,
completion path, and counters), golden-output identity for
representative experiments, and the §IV fidelity plan.
"""

import dataclasses
import pathlib

from repro.conv import ConvDevice
from repro.core import ExperimentConfig
from repro.core.experiments.points import assemble, experiment_plans
from repro.device import DeviceCore
from repro.hostif import Command, Opcode
from repro.sim import ms
from repro.zns import ZnsDevice

from .test_conv_device import make_conv
from .util import make_device, run_cmd, run_experiment, write

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def golden_config():
    """The config the committed golden tables were rendered at
    (``repro --fast``, default seed)."""
    return ExperimentConfig(point_runtime_ns=ms(3), ramp_ns=ms(0.5),
                            zones_per_level=5, interference_reset_zones=12,
                            interference_runtime_ns=ms(600))


class TestSharedCore:
    def test_models_are_core_specializations(self):
        assert issubclass(ZnsDevice, DeviceCore)
        assert issubclass(ConvDevice, DeviceCore)
        assert ZnsDevice.kind == "zns" and ConvDevice.kind == "conv"
        # The pipeline methods are inherited, not re-implemented.
        for name in ("_controller_service", "_complete", "submit",
                     "_io_shape", "_flush_done"):
            assert getattr(ZnsDevice, name) is getattr(DeviceCore, name)
            assert getattr(ConvDevice, name) is getattr(DeviceCore, name)

    def test_unsupported_opcodes_raise_synchronously(self):
        import pytest

        sim, zns = make_device()
        with pytest.raises(ValueError):
            zns.submit(Command(Opcode.TRIM, slba=0, nlb=4))
        sim2, conv = make_conv()
        with pytest.raises(ValueError):
            conv.submit(Command(Opcode.APPEND, slba=0, nlb=4))

    def test_counters_account_identically(self):
        sim, zns = make_device()
        zone = zns.zones.zones[0]
        assert run_cmd(sim, zns, write(zone.wp, 4)).ok
        sim2, conv = make_conv()
        assert run_cmd(sim2, conv, write(0, 4)).ok
        assert zns.counters.completed[Opcode.WRITE] == 1
        assert conv.counters.completed[Opcode.WRITE] == 1
        assert zns.counters.bytes_written == conv.counters.bytes_written == 4 * 4096


class TestGoldenIdentity:
    """The refactor must not move a single byte of experiment output."""

    def _check(self, exp_id: str, golden_name: str, faults=None):
        config = dataclasses.replace(golden_config(), faults=faults)
        result = run_experiment(exp_id, config)
        golden = (GOLDEN_DIR / golden_name).read_text()
        assert result.table() + "\n" == golden

    def test_fig2b_matches_golden(self):
        self._check("fig2b", "fig2b_fast.txt")

    def test_fig4a_matches_golden(self):
        self._check("fig4a", "fig4a_fast.txt")

    def test_fig2b_under_chaos_matches_golden(self):
        # Rendered before the static fault probabilities became flat wear
        # curves and the injector stopped batching its draws: both must
        # leave every fault outcome where it was.
        self._check("fig2b", "fig2b_fast_chaos.txt", faults="chaos")

    def test_fig3_under_power_cut_matches_golden(self):
        # Rendered while page operations still held dies and buses as
        # Resources, one process each: the cut cancels queued flushes
        # that must still cross their bus and drop at die start.
        self._check("fig3", "fig3_fast_power_cut.txt", faults="power-cut")


def _synthetic_quantities(name: str) -> dict:
    """A quantities dict that reproduces every probed observation when
    judged against itself (ratios chosen to satisfy the orderings)."""
    return {
        "name": name,
        "lat_w4": 10.0, "lat_w32": 20.0, "lat_a4": 12.0, "lat_a8": 14.0,
        "write_intra_qd8": 300.0, "write_inter_8z": 200.0,
        "append_intra_qd4": 150.0, "append_inter_4z": 150.0,
        "read_intra_qd64": 400.0, "append8k_qd4_mibs": 500.0,
        "open_us": 10.0, "implicit_penalty_us": 10.0,
        "reset_empty_ms": 1.0, "reset_full_ms": 3.0,
        "finish_low_ms": 50.0, "finish_high_ms": 1.0,
        "reset_iso_ms": 3.0, "reset_loaded_p95_ms": 6.0,
        "write_drift": 0.01,
    }


class TestFidelityPlan:
    def test_registered_as_auxiliary_only(self):
        assert "sec4" not in experiment_plans()
        assert "sec4" in experiment_plans(auxiliary=True)

    def test_plan_lists_one_point_per_model(self):
        from repro.emulators.fidelity import FIDELITY_PLAN
        from repro.emulators.models import ALL_MODELS

        params = FIDELITY_PLAN.plan(ExperimentConfig())
        assert params == [{"model": m.name} for m in ALL_MODELS]

    def test_fold_builds_verdict_rows_with_int_keys(self):
        from repro.emulators.fidelity import FIDELITY_PLAN, PROBED_OBSERVATIONS
        from repro.emulators.models import ALL_MODELS

        payloads = [
            {"quantities": _synthetic_quantities(m.name)} for m in ALL_MODELS
        ]
        result = assemble(FIDELITY_PLAN, ExperimentConfig(), payloads)
        assert len(result.rows) == len(PROBED_OBSERVATIONS)
        # Every model matches the reference exactly, so everything
        # reproduces.
        for row in result.rows:
            assert all(row[m.name] == "yes" for m in ALL_MODELS)
        # The verdict dicts keep their *int* observation keys: the fold
        # runs in-process, after the JSON round-trip of the payloads.
        verdicts = result.meta["verdicts"]
        for model in ALL_MODELS:
            assert set(verdicts[model.name]) == set(PROBED_OBSERVATIONS)

