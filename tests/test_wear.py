"""The wear-dependent lifetime model (DESIGN.md §17).

Covers the wear layer end to end:

* :class:`WearCurve` — the parametric base/knee/slope failure ladder,
  its JSON round trip, and validation;
* plan-level wiring — wear curves arming the media-fault machinery,
  inverted retirement thresholds rejected at resolve time;
* wear odometers — erase counts, read-disturb exposure, program
  failures; snapshot/restore through the device state fixture;
* deterministic aging — :meth:`Device.age` replays are bit-reproducible
  per (seed, epochs), retire zones by erase-count thresholds, and
  compose with the chaos preset;
* conventional bad-block management — spare-pool promotion, remap
  flagging, and victim exclusion in the page-mapped FTL.
"""

from __future__ import annotations

import json

import pytest

from repro.faults import (
    FaultPlan,
    FaultPlanError,
    WearCurve,
    WearTracker,
    resolve,
)
from repro.flash.geometry import FlashGeometry
from repro.conv.ftl import PageMappedFtl
from repro.hostif import Status, ZoneAction
from repro.zns import ZoneState

from .util import make_device, mgmt, read, run_cmd, write

KIB = 1024


def plan(**overrides) -> FaultPlan:
    return FaultPlan(name="test", **overrides)


class TestWearCurve:
    def test_flat_curve_is_constant(self):
        curve = WearCurve(base=0.25)
        assert curve.value(0) == 0.25
        assert curve.value(10_000) == 0.25

    def test_slope_climbs_after_knee_and_caps(self):
        curve = WearCurve(base=0.1, knee=10, slope=0.05, cap=0.4)
        assert curve.value(0) == 0.1
        assert curve.value(10) == 0.1          # knee inclusive
        assert curve.value(12) == pytest.approx(0.2)
        assert curve.value(1_000) == 0.4       # capped

    def test_armed_semantics(self):
        assert not WearCurve().armed                      # all-zero: inert
        assert WearCurve(base=0.1).armed
        assert WearCurve(slope=0.01).armed                # arms with wear
        assert not WearCurve(slope=0.01, cap=0.0).armed   # capped to zero

    def test_json_round_trip(self):
        curve = WearCurve(base=0.05, knee=4, slope=0.01, cap=0.5)
        assert WearCurve.from_dict(json.loads(json.dumps(curve.to_dict()))) == curve

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            WearCurve.from_dict({"base": 0.1, "bend": 3})

    def test_curve_in_profile_rejected_as_plan_error(self, tmp_path):
        path = tmp_path / "bad-curve.json"
        path.write_text(json.dumps(
            {"program_fail_curve": {"base": 0.1, "bend": 3}}))
        with pytest.raises(FaultPlanError, match="program_fail_curve"):
            resolve(str(path))

    def test_validation(self):
        with pytest.raises(ValueError):
            WearCurve(base=1.5)
        with pytest.raises(ValueError):
            WearCurve(base=0.5, cap=0.2)   # base above cap
        with pytest.raises(ValueError):
            WearCurve(slope=-0.1)
        with pytest.raises(ValueError):
            WearCurve(knee=-1)


class TestPlanWearValidation:
    def test_inverted_failure_thresholds_rejected(self):
        # OFFLINE at-or-below READ_ONLY would skip the read-only stage.
        with pytest.raises(FaultPlanError, match="READ_ONLY"):
            plan(retire_read_only_after=4, retire_offline_after=4)
        with pytest.raises(FaultPlanError, match="READ_ONLY"):
            plan(retire_read_only_after=6, retire_offline_after=2)

    def test_inverted_erase_thresholds_rejected(self):
        with pytest.raises(FaultPlanError, match="READ_ONLY"):
            plan(retire_read_only_erases=50, retire_offline_erases=40)

    def test_inverted_thresholds_rejected_through_resolve(self, tmp_path):
        path = tmp_path / "inverted.json"
        path.write_text(json.dumps(
            {"retire_read_only_after": 8, "retire_offline_after": 8}))
        with pytest.raises(FaultPlanError, match="READ_ONLY"):
            resolve(str(path))

    def test_single_sided_thresholds_allowed(self):
        # Failure-count thresholds alone are valid but inert (they only
        # fire when program faults actually occur); erase thresholds arm
        # the plan on their own (aging can trip them without faults).
        plan(retire_offline_after=3)
        assert not plan(retire_offline_after=3).enabled
        assert plan(retire_read_only_erases=10).enabled

    def test_curve_profile_round_trips_through_json(self, tmp_path):
        path = tmp_path / "wear.json"
        path.write_text(json.dumps({
            "program_fail_curve": {"base": 0.02, "knee": 8, "slope": 0.004,
                                   "cap": 0.3},
        }))
        loaded = resolve(str(path))
        assert loaded.program_fail_curve == WearCurve(
            base=0.02, knee=8, slope=0.004, cap=0.3)
        # And back out: to_dict serializes the curve as a dict again.
        assert json.loads(json.dumps(loaded.to_dict()))[
            "program_fail_curve"]["knee"] == 8

    def test_presets_carry_wear_curves(self):
        assert resolve("wearout").program_fail_curve.armed
        assert resolve("wearout").erase_fail_curve.armed
        assert resolve("read-disturb").read_disturb_curve.armed


class TestWearOdometers:
    #: Armed but (at zero wear) inert: probabilities only climb with
    #: erase count, so a fresh device sees no failures.
    _TRACKING = dict(program_fail_curve=WearCurve(slope=1e-9))

    def test_reset_bumps_erase_count_and_clears_exposure(self):
        sim, dev = make_device(faults=plan(
            **self._TRACKING, read_disturb_curve=WearCurve(slope=1e-9),
            read_disturb_exposure_reads=2))
        page = dev.profile.geometry.page_size
        nlb = page // 4096
        assert run_cmd(sim, dev, write(0, nlb)).ok
        sim.run()
        for _ in range(3):
            assert run_cmd(sim, dev, read(0, nlb)).ok
        wear = dict(dev.faults.wear.items())[0]
        assert wear.reads_since_erase == 3
        assert run_cmd(sim, dev, mgmt(0, ZoneAction.RESET)).ok
        assert wear.erase_count == 1
        assert wear.reads_since_erase == 0
        assert dev.faults.max_erase_count.value == 1

    def test_program_failures_accumulate_per_zone(self):
        sim, dev = make_device(faults=plan(
            program_fail_curve=WearCurve(base=1.0), program_retry_max=1,
            retire_read_only_after=100))
        page = dev.profile.geometry.page_size
        assert run_cmd(sim, dev, write(0, 4 * page // 4096)).ok
        sim.run()
        assert dict(dev.faults.wear.items())[0].program_failures == 4

    def test_failure_probability_monotone_in_wear(self):
        injector_plan = plan(program_fail_curve=WearCurve(
            base=0.01, knee=5, slope=0.02, cap=0.6))
        sim, dev = make_device(faults=injector_plan)
        probs = []
        wear = dev.faults.wear.unit(0)
        for erases in (0, 5, 10, 20, 50, 1_000):
            wear.erase_count = erases
            probs.append(dev.faults._erase_count_prob(
                injector_plan.program_fail_curve, wear))
        assert probs == sorted(probs)
        assert probs[0] == 0.01 and probs[-1] == 0.6

    def test_wear_snapshot_restores_through_device_fixture(self):
        sim, dev = make_device(faults=resolve("wearout"))
        page = dev.profile.geometry.page_size
        assert run_cmd(sim, dev, write(0, 4 * page // 4096)).ok
        sim.run()
        assert run_cmd(sim, dev, mgmt(0, ZoneAction.RESET)).ok
        sim.run()
        dev.age(3)
        image = dev.state_snapshot()
        worn = dev.faults.wear.snapshot()
        assert any(entry[0] > 0 for entry in worn.values())  # erases landed

        sim2, dev2 = make_device(faults=resolve("wearout"))
        dev2.restore_state(image)
        assert dev2.faults.wear.snapshot() == worn

    def test_tracker_restore_round_trip(self):
        tracker = WearTracker()
        unit = tracker.unit(7)
        unit.erase_count, unit.program_failures, unit.reads_since_erase = 9, 2, 5
        clone = WearTracker()
        clone.restore(json.loads(json.dumps(tracker.snapshot())))
        assert clone.snapshot() == tracker.snapshot()
        assert dict(clone.items())[7].erase_count == 9


class TestAging:
    def test_age_is_inert_without_faults(self):
        sim, dev = make_device(faults=None)
        assert dev.age(10) == 0

    def test_age_zero_epochs_is_noop(self):
        sim, dev = make_device(faults=resolve("wearout"))
        assert dev.age(0) == 0
        assert len(dev.faults.wear) == 0

    def test_age_is_deterministic_per_seed(self):
        _, dev_a = make_device(faults=resolve("wearout"))
        _, dev_b = make_device(faults=resolve("wearout"))
        dev_a.age(5)
        dev_b.age(5)
        assert dev_a.faults.wear.snapshot() == dev_b.faults.wear.snapshot()
        # And epochs matter: a different age is a different replay.
        _, dev_c = make_device(faults=resolve("wearout"))
        dev_c.age(6)
        assert dev_c.faults.wear.snapshot() != dev_a.faults.wear.snapshot()

    def test_age_accumulates_monotonically(self):
        _, dev = make_device(faults=resolve("wearout"))
        dev.age(2)
        first = dev.faults.wear.max_erase_count()
        dev.age(2)
        assert dev.faults.wear.max_erase_count() > first
        assert dev.faults.max_erase_count.value >= first

    def test_age_retires_zones_by_erase_thresholds(self):
        sim, dev = make_device(faults=plan(
            program_fail_curve=WearCurve(slope=1e-9),
            retire_read_only_erases=10, retire_offline_erases=60))
        retired = dev.age(4)   # mean ~18 erases/zone, all past 10
        assert retired > 0
        states = {z.state for z in dev.zones.zones}
        assert ZoneState.READ_ONLY in states
        assert dev.faults.zones_read_only.value == retired
        # READ_ONLY zones still serve reads but refuse writes.
        ro = next(z for z in dev.zones.zones
                  if z.state is ZoneState.READ_ONLY)
        nlb = dev.profile.geometry.page_size // 4096
        assert run_cmd(sim, dev, write(ro.zslba, nlb)).status is not Status.SUCCESS

    def test_chaos_plus_aging_runs_clean(self):
        # The kitchen-sink preset composes with a pre-aged device: the
        # workload must complete (errors allowed, crashes not).
        sim, dev = make_device(faults=resolve("chaos"))
        dev.age(3)
        page = dev.profile.geometry.page_size
        nlb = page // 4096
        outcomes = []
        for i in range(8):
            outcomes.append(run_cmd(sim, dev, write(i * nlb, nlb)))
        sim.run()
        for i in range(8):
            outcomes.append(run_cmd(sim, dev, read(i * nlb, nlb)))
        assert all(isinstance(c.latency_ns, int) for c in outcomes)
        dev.zones.check_invariants()


class TestConvBadBlocks:
    def _ftl(self, spares=1):
        geometry = FlashGeometry(
            channels=1, dies_per_channel=2, planes_per_die=1,
            blocks_per_plane=4, pages_per_block=4, page_size=4 * KIB)
        return PageMappedFtl(geometry, overprovision=0.25,
                             spare_blocks_per_die=spares)

    def test_spares_held_out_of_circulation(self):
        ftl = self._ftl(spares=1)
        total = ftl.geometry.total_blocks
        assert ftl.free_block_count == total - 2   # one spare per die
        assert len(ftl._spare[0]) == 1

    def test_retire_promotes_spare_and_flags_remap(self):
        ftl = self._ftl(spares=1)
        victim = 0
        spare = ftl.retire_block(victim)
        assert spare is not None
        assert victim in ftl.bad_blocks
        assert spare in ftl.remapped_blocks
        page = spare * ftl.pages_per_block
        assert page // ftl.pages_per_block in ftl.remapped_blocks
        assert len(ftl._spare[victim // ftl.blocks_per_die]) == 0
        # The dead block can never be picked again.
        assert ftl._write_slot[victim] == ftl.pages_per_block
        picked = ftl.pick_victim()
        assert picked is None or picked != victim

    def test_retirement_without_spares_shrinks_the_die(self):
        ftl = self._ftl(spares=1)
        first = ftl.retire_block(0)
        assert first is not None
        before = ftl.free_block_count
        second = ftl.retire_block(1)   # same die, pool empty
        assert second is None
        assert ftl.free_block_count == before      # nothing promoted

    def test_retire_rejects_blocks_with_valid_pages(self):
        ftl = self._ftl()
        ftl._valid[0] = 1
        with pytest.raises(ValueError, match="valid pages"):
            ftl.retire_block(0)
