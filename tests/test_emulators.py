"""Tests for the §IV emulator latency models and fidelity probes."""

import pytest

from repro.emulators import ALL_MODELS, CONFZNS, FEMU, NVMEVIRT, THIS_WORK
from repro.emulators.fidelity import (
    _mgmt_latency_ms,
    _qd1_latency_us,
    _verdicts,
    probe_model,
)
from repro.hostif import Command, Opcode, ZoneAction

KIB = 1024


class TestModelDefinitions:
    def test_four_models(self):
        assert len(ALL_MODELS) == 4
        assert {m.name for m in ALL_MODELS} == {"femu", "nvmevirt", "confzns", "this-work"}

    def test_models_build_working_devices(self):
        for model in ALL_MODELS:
            sim, device = model.build()
            cpl = sim.run(until=device.submit(Command(Opcode.WRITE, slba=0, nlb=1)))
            assert cpl.ok, model.name

    def test_femu_completes_at_host_speed(self):
        latency = _qd1_latency_us(FEMU, Opcode.WRITE, 4 * KIB, reps=5)
        assert latency < 2.0  # microseconds: DRAM-speed

    def test_femu_ops_all_equal(self):
        write = _qd1_latency_us(FEMU, Opcode.WRITE, 4 * KIB, reps=5)
        append = _qd1_latency_us(FEMU, Opcode.APPEND, 4 * KIB, reps=5)
        assert write == pytest.approx(append, rel=0.05)

    def test_nvmevirt_append_equals_write(self):
        write = _qd1_latency_us(NVMEVIRT, Opcode.WRITE, 4 * KIB, reps=5)
        append = _qd1_latency_us(NVMEVIRT, Opcode.APPEND, 4 * KIB, reps=5)
        assert append == pytest.approx(write, rel=0.05)

    def test_this_work_append_differs_from_write(self):
        write = _qd1_latency_us(THIS_WORK, Opcode.WRITE, 4 * KIB, reps=5)
        append = _qd1_latency_us(THIS_WORK, Opcode.APPEND, 4 * KIB, reps=5)
        assert append > 1.2 * write

    def test_nvmevirt_reset_is_static(self):
        empty = _mgmt_latency_ms(NVMEVIRT, ZoneAction.RESET, 0.0, reps=3)
        full = _mgmt_latency_ms(NVMEVIRT, ZoneAction.RESET, 1.0, reps=3)
        assert empty == pytest.approx(full, rel=0.15)
        assert empty == pytest.approx(3.5, rel=0.15)  # NAND erase latency

    def test_this_work_reset_occupancy_dependent(self):
        empty = _mgmt_latency_ms(THIS_WORK, ZoneAction.RESET, 0.0, reps=3)
        full = _mgmt_latency_ms(THIS_WORK, ZoneAction.RESET, 1.0, reps=3)
        assert full > 1.8 * empty

    def test_emulators_enforce_full_zone_semantics(self):
        """Latency models differ; the zone state machine must not."""
        for model in ALL_MODELS:
            sim, device = model.build()
            bad = sim.run(until=device.submit(Command(Opcode.WRITE, slba=5, nlb=1)))
            assert not bad.ok, model.name


@pytest.fixture(scope="module")
def ref():
    """The reference model's probe, shared: each call simulates ~2 s."""
    return probe_model(THIS_WORK)


class TestVerdictLogic:
    def test_reference_passes_against_itself(self, ref):
        verdicts = _verdicts(ref, ref)
        failed = [obs for obs, ok in verdicts.items() if not ok]
        assert not failed, f"reference failed its own observations: {failed}"

    def test_femu_fails_everything(self, ref):
        verdicts = _verdicts(probe_model(FEMU), ref)
        assert not any(verdicts.values())

    def test_nvmevirt_misses_append_and_transitions(self, ref):
        verdicts = _verdicts(probe_model(NVMEVIRT), ref)
        for obs in (4, 6, 9, 10, 12, 13):
            assert not verdicts[obs], f"obs {obs} should fail on NVMeVirt"
        for obs in (3, 7, 8):
            assert verdicts[obs], f"obs {obs} should pass on NVMeVirt (read/write accurate)"

    def test_confzns_reproduces_read_write_scaling(self, ref):
        verdicts = _verdicts(probe_model(CONFZNS), ref)
        assert verdicts[3] and verdicts[5] and verdicts[7] and verdicts[8]
        assert not verdicts[4] and not verdicts[9]
