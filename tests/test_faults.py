"""The deterministic fault-injection subsystem (DESIGN.md §12).

Covers the four fault layers end to end:

* plan resolution (presets, JSON profiles, validation),
* media faults at the flash backend — read-retry ladders with exact
  injected latency, uncorrectable reads, program failures driving zone
  retirement to READ_ONLY/OFFLINE,
* the scheduled power cut — buffer-tail loss, write-pointer rollback,
  recovery accounting, and bit-reproducibility,
* host resilience — command timeouts and bounded retry of retryable
  statuses,

plus the two headline guarantees: a *disabled* plan is byte-identical
to no plan at all, and a faulted sweep is identical at any ``--jobs``.
"""

from __future__ import annotations

import json

import pytest

from repro.faults import FAULT_PRESETS, FaultPlan, FaultPlanError, resolve
from repro.hostif import Command, Completion, Opcode, Status
from repro.sim.engine import ms, us
from repro.stacks import SpdkStack
from repro.workload import IoKind, JobRunner, JobSpec
from repro.zns import ZoneState

from .util import make_device, read, run_cmd, write

KIB = 1024


def plan(**overrides) -> FaultPlan:
    return FaultPlan(name="test", **overrides)


class TestPlanResolution:
    def test_none_and_disabled_resolve_to_none(self):
        assert resolve(None) is None
        assert resolve("") is None
        assert resolve("none") is None  # the preset is inert

    def test_every_preset_resolves(self):
        for name in FAULT_PRESETS:
            if name == "none":
                continue
            resolved = resolve(name)
            assert resolved is not None and resolved.enabled

    def test_unknown_preset_lists_known_names(self):
        with pytest.raises(FaultPlanError, match="chaos"):
            resolve("definitely-not-a-preset")

    def test_json_profile_round_trip(self, tmp_path):
        path = tmp_path / "my-faults.json"
        path.write_text(json.dumps({"read_disturb_prob": 0.5}))
        loaded = resolve(str(path))
        assert loaded.read_disturb_prob == 0.5
        assert loaded.name == "my-faults"  # defaults to the file stem

    def test_json_profile_rejects_unknown_fields(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"read_disturb_probability": 1.0}))
        with pytest.raises(FaultPlanError, match="unknown fields"):
            resolve(str(path))

    def test_invalid_probability_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(read_disturb_prob=1.5)

    def test_plans_are_json_serializable(self):
        for preset in FAULT_PRESETS.values():
            assert json.loads(json.dumps(preset.to_dict()))["name"] == preset.name


class TestMediaReadFaults:
    def _read_latency(self, faults):
        sim, dev = make_device(faults=faults)
        nlb = dev.profile.geometry.page_size // 4096
        assert run_cmd(sim, dev, write(0, nlb)).ok
        sim.run()  # drain the flush so the read is not queued behind it
        return sim, dev, run_cmd(sim, dev, read(0, nlb))

    def test_retry_ladder_adds_exact_latency(self):
        # prob=1 + retry_max=1 makes the ladder depth deterministic (one
        # retry); the quiet profile has jitter disabled, so the injected
        # latency is exactly the configured step.
        _, _, clean = self._read_latency(None)
        _, dev, faulty = self._read_latency(plan(
            read_disturb_prob=1.0, read_retry_max=1,
            read_retry_step_ns=us(50)))
        assert faulty.ok
        assert faulty.latency_ns - clean.latency_ns == us(50)
        assert dev.faults.read_disturbs.value == 1
        assert dev.faults.read_retries.value == 1

    def test_uncorrectable_read_fails_after_full_ladder(self):
        _, _, clean = self._read_latency(None)
        sim, dev, faulty = self._read_latency(plan(
            read_disturb_prob=1.0, read_uncorrectable_frac=1.0,
            read_retry_max=2, read_retry_step_ns=us(40)))
        assert faulty.status is Status.MEDIA_UNRECOVERED_READ
        assert not faulty.status.retryable  # DNR: retrying cannot help
        assert faulty.latency_ns - clean.latency_ns == 2 * us(40)
        assert dev.faults.read_uncorrectable.value == 1
        # The failed read shows up in the always-on device error counters.
        assert dev.counters.errors[Status.MEDIA_UNRECOVERED_READ] == 1

    def test_read_faults_leave_writes_untouched(self):
        sim_a, dev_a = make_device(faults=None)
        sim_b, dev_b = make_device(faults=plan(read_disturb_prob=1.0))
        nlb = dev_a.profile.geometry.page_size // 4096
        a = run_cmd(sim_a, dev_a, write(0, nlb))
        b = run_cmd(sim_b, dev_b, write(0, nlb))
        assert a.latency_ns == b.latency_ns


class TestZoneRetirement:
    def test_program_failures_retire_zone_to_offline(self):
        # Every page program fails exactly once (prob=1, retry cap 1):
        # four flushed pages accumulate four failures, crossing the
        # READ_ONLY threshold at 2 and the OFFLINE threshold at 4.
        sim, dev = make_device(faults=plan(
            program_fail_prob=1.0, program_retry_max=1,
            retire_read_only_after=2, retire_offline_after=4))
        page = dev.profile.geometry.page_size
        assert run_cmd(sim, dev, write(0, 4 * page // 4096)).ok
        sim.run()  # let the async flushes (and their failures) land
        zone = dev.zones.zones[0]
        assert zone.state is ZoneState.OFFLINE
        assert dev.faults.program_failures.value == 4
        assert dev.faults.zones_read_only.value == 1
        assert dev.faults.zones_offlined.value == 1
        dev.zones.check_invariants()
        # The retired zone now rejects host I/O with the NVMe status.
        cpl = run_cmd(sim, dev, write(4 * page // 4096, page // 4096))
        assert cpl.status is Status.ZONE_IS_OFFLINE

    def test_below_threshold_zone_stays_writable(self):
        sim, dev = make_device(faults=plan(
            program_fail_prob=1.0, program_retry_max=1,
            retire_read_only_after=100))
        page = dev.profile.geometry.page_size
        assert run_cmd(sim, dev, write(0, 4 * page // 4096)).ok
        sim.run()
        assert dev.faults.program_failures.value == 4
        assert dev.zones.zones[0].state not in (
            ZoneState.READ_ONLY, ZoneState.OFFLINE)


class TestPowerCut:
    # The 2 MiB write is admitted into the buffer at ~t=401us and NAND
    # programs take 450us, so a cut at t=500us catches a full buffer
    # with only the earliest pages persisted.
    CUT = plan(power_cut_at_ns=us(500), plp_budget_bytes=0,
               recovery_base_ns=ms(1))

    def _run_cut(self):
        sim, dev = make_device(faults=self.CUT)
        nlb = (2 * 1024 * KIB) // 4096  # 2 MiB, far more than flushes by t=500us
        assert run_cmd(sim, dev, write(0, nlb)).ok
        sim.run()
        return sim, dev

    def test_cut_drops_tail_and_rolls_back_wp(self):
        sim, dev = self._run_cut()
        lost = dev.faults.bytes_lost.value
        assert dev.faults.power_cuts.value == 1
        assert lost > 0
        assert dev.faults.recovery_ns.value >= ms(1)
        # Lost bytes came out of the buffer: everything else flushed.
        assert dev.buffer.level == 0
        # The write pointer rolled back over the lost LBAs.
        zone = dev.zones.zones[0]
        written_lbas = (2 * 1024 * KIB) // 4096
        assert zone.wp - zone.zslba == written_lbas - lost // 4096
        dev.zones.check_invariants()

    def test_cut_is_bit_reproducible(self):
        sim_a, dev_a = self._run_cut()
        sim_b, dev_b = self._run_cut()
        assert dev_a.faults.bytes_lost.value == dev_b.faults.bytes_lost.value
        assert dev_a.zones.zones[0].wp == dev_b.zones.zones[0].wp
        assert sim_a.now == sim_b.now

    def test_plp_budget_bounds_the_loss(self):
        generous = plan(power_cut_at_ns=us(500),
                        plp_budget_bytes=64 * 1024 * KIB)
        sim, dev = make_device(faults=generous)
        assert run_cmd(sim, dev, write(0, (2 * 1024 * KIB) // 4096)).ok
        sim.run()
        assert dev.faults.power_cuts.value == 1
        assert dev.faults.bytes_lost.value == 0  # budget covers the tail


class _ScriptedStack:
    """Stack stub whose completion statuses are scripted per submission."""

    def __init__(self, sim, statuses):
        self.sim = sim
        self.statuses = list(statuses)
        self.submissions = 0

    def submit(self, command):
        command.submitted_at = self.sim.now
        status = (self.statuses.pop(0) if self.statuses
                  else Status.SUCCESS)
        self.submissions += 1

        def _complete():
            yield self.sim.timeout(us(10))
            return Completion(command=command, status=status,
                              completed_at=self.sim.now)

        return self.sim.process(_complete())


class TestHostResilience:
    def _job(self, **overrides):
        spec = dict(op=IoKind.WRITE, block_size=64 * KIB, runtime_ns=ms(1),
                    zones=[0])
        spec.update(overrides)
        return JobSpec(**spec)

    def test_command_timeout_counts_aborts(self):
        sim, dev = make_device(faults=plan(command_timeout_ns=us(1)))
        result = JobRunner(dev, SpdkStack(dev), self._job()).run()
        assert result.timeouts > 0
        assert result.errors.get(Status.COMMAND_ABORTED) == result.timeouts
        assert result.ops == 0  # every command timed out
        assert dev.metrics.counter("host.timeouts").value == result.timeouts

    def test_retryable_status_retried_to_success(self):
        # command_timeout arms the host-resilience path without ever
        # firing (50 ms >> the run); a retry-only plan is otherwise inert.
        sim, dev = make_device(faults=plan(max_retries=3,
                                           retry_backoff_ns=us(5),
                                           command_timeout_ns=ms(50)))
        stack = _ScriptedStack(sim, [Status.TOO_MANY_ACTIVE_ZONES] * 2)
        result = JobRunner(dev, stack, self._job()).run()
        assert result.retries == 2  # two flaky completions, then clean
        assert not result.errors
        assert result.ops > 0
        assert dev.metrics.counter("host.retries").value == 2

    def test_retry_budget_bounds_attempts(self):
        sim, dev = make_device(faults=plan(max_retries=2,
                                           retry_backoff_ns=us(5),
                                           command_timeout_ns=ms(50)))
        stack = _ScriptedStack(sim, [Status.TOO_MANY_ACTIVE_ZONES] * 100)
        result = JobRunner(dev, stack, self._job(runtime_ns=us(200))).run()
        # Each command burns its full budget then records the error.
        assert result.errors.get(Status.TOO_MANY_ACTIVE_ZONES, 0) >= 1
        assert result.retries >= 2

    def test_dnr_status_not_retried(self):
        sim, dev = make_device(faults=plan(max_retries=3,
                                           command_timeout_ns=ms(50)))
        stack = _ScriptedStack(sim, [Status.MEDIA_UNRECOVERED_READ] * 100)
        result = JobRunner(dev, stack, self._job(runtime_ns=us(100))).run()
        assert result.retries == 0
        assert result.errors.get(Status.MEDIA_UNRECOVERED_READ, 0) >= 1


class TestDisabledPlanByteIdentity:
    def _run(self, faults):
        sim, dev = make_device(faults=faults)
        job = JobSpec(op=IoKind.APPEND, block_size=4 * KIB, runtime_ns=ms(4),
                      zones=[0, 1], iodepth=4)
        result = JobRunner(dev, SpdkStack(dev), job).run()
        return sim, result

    def test_inert_plan_is_byte_identical_to_no_plan(self):
        sim_none, res_none = self._run(None)
        sim_null, res_null = self._run(FaultPlan())  # every knob inert
        assert sim_none.now == sim_null.now  # same event timeline
        assert res_none.ops == res_null.ops
        assert (res_none.latency.asarray() == res_null.latency.asarray()).all()

    def test_device_skips_injector_for_inert_plan(self):
        _, dev = make_device(faults=FaultPlan())
        assert dev.faults is None
        assert dev.backend.faults is None


class TestResetSweepRetirement:
    def test_fig7_sweep_drops_zone_retired_by_failed_erase(self):
        # Seed 16 under chaos fails an erase in fig7's reset pool at the
        # --fast scale, retiring a pool zone OFFLINE. The sweep must drop
        # that zone and finish instead of aborting on force_fill.
        import dataclasses

        from repro.core.experiments.reset_interference import FIG7_PLAN

        from .test_device_core import golden_config

        config = dataclasses.replace(golden_config(), seed=16, faults="chaos")
        (row,) = FIG7_PLAN.point(config, {"concurrent_op": "none"})["rows"]
        assert row["resets"] == 12


class TestParallelDeterminism:
    def test_faulted_sweep_identical_at_any_jobs(self):
        # The whole point of seed-driven injection: fault outcomes ride
        # the per-point-salted device streams, so worker count cannot
        # change them. Full-output equality, serial vs 2 workers.
        from repro.core.experiments.common import ExperimentConfig
        from repro.core.experiments.points import serialize_result
        from repro.exec import execute_experiments

        config = ExperimentConfig(point_runtime_ns=ms(2), ramp_ns=ms(0.4),
                                  num_zones=16, zones_per_level=3,
                                  faults="wearout")
        serial, _ = execute_experiments(["fig2a"], config, jobs=1)
        parallel, _ = execute_experiments(["fig2a"], config, jobs=2)
        assert (json.dumps(serialize_result(serial["fig2a"]), sort_keys=True)
                == json.dumps(serialize_result(parallel["fig2a"]),
                              sort_keys=True))
