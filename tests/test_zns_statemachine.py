"""Unit + property tests for the ZNS zone state machine."""

import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hostif import Status
from repro.sim import SimulationError
from repro.zns import ZoneManager, ZoneState


def manager(num_zones=8, size=100, cap=80, max_open=3, max_active=5) -> ZoneManager:
    return ZoneManager(num_zones, size, cap, max_open, max_active)


class TestConstruction:
    def test_zone_layout(self):
        mgr = manager(num_zones=4, size=100, cap=80)
        assert len(mgr.zones) == 4
        assert [z.zslba for z in mgr.zones] == [0, 100, 200, 300]
        assert all(z.state is ZoneState.EMPTY for z in mgr.zones)
        assert all(z.wp == z.zslba for z in mgr.zones)

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            manager(max_open=0)
        with pytest.raises(ValueError):
            manager(max_open=6, max_active=5)
        with pytest.raises(ValueError):
            ZoneManager(0, 100, 80, 1, 1)

    def test_zone_lookup(self):
        mgr = manager()
        assert mgr.zone_containing(0).index == 0
        assert mgr.zone_containing(99).index == 0
        assert mgr.zone_containing(100).index == 1
        assert mgr.zone_containing(100 * 8) is None
        assert mgr.zone_at_start(200).index == 2
        assert mgr.zone_at_start(201) is None


class TestWrites:
    def test_write_implicitly_opens_and_advances_wp(self):
        mgr = manager()
        zone = mgr.zones[0]
        status, opened = mgr.admit_write(zone, 0, 10)
        assert status is Status.SUCCESS and opened
        assert zone.state is ZoneState.IMPLICIT_OPEN
        assert zone.wp == 10
        assert mgr.open_count == 1 and mgr.active_count == 1

    def test_second_write_does_not_reopen(self):
        mgr = manager()
        zone = mgr.zones[0]
        mgr.admit_write(zone, 0, 10)
        status, opened = mgr.admit_write(zone, 10, 10)
        assert status is Status.SUCCESS and not opened

    def test_nonsequential_write_rejected_without_side_effects(self):
        mgr = manager()
        zone = mgr.zones[0]
        status, opened = mgr.admit_write(zone, 5, 10)
        assert status is Status.ZONE_INVALID_WRITE and not opened
        assert zone.state is ZoneState.EMPTY
        assert mgr.open_count == 0 and mgr.active_count == 0
        mgr.check_invariants()

    def test_rejected_write_to_closed_zone_stays_closed(self):
        mgr = manager()
        zone = mgr.zones[0]
        mgr.admit_write(zone, 0, 10)
        mgr.close(zone)
        status, _ = mgr.admit_write(zone, 99, 1)  # wrong wp
        assert status is Status.ZONE_INVALID_WRITE
        assert zone.state is ZoneState.CLOSED
        mgr.check_invariants()

    def test_write_filling_capacity_goes_full(self):
        mgr = manager(size=100, cap=80)
        zone = mgr.zones[0]
        status, _ = mgr.admit_write(zone, 0, 80)
        assert status is Status.SUCCESS
        assert zone.state is ZoneState.FULL
        assert mgr.open_count == 0 and mgr.active_count == 0

    def test_write_beyond_capacity_is_boundary_error(self):
        mgr = manager(size=100, cap=80)
        zone = mgr.zones[0]
        status, _ = mgr.admit_write(zone, 0, 81)
        assert status is Status.ZONE_BOUNDARY_ERROR
        assert zone.state is ZoneState.EMPTY

    def test_write_to_full_zone_rejected(self):
        mgr = manager()
        zone = mgr.zones[0]
        mgr.admit_write(zone, 0, 80)
        status, _ = mgr.admit_write(zone, 80, 1)
        assert status is Status.ZONE_IS_FULL

    def test_max_active_blocks_opening_new_zone(self):
        mgr = manager(max_open=2, max_active=2)
        for i in (0, 1):
            mgr.admit_write(mgr.zones[i], mgr.zones[i].zslba, 1)
            mgr.close(mgr.zones[i])
        # Both open slots are free, but the active budget is exhausted by
        # the two closed zones.
        status, _ = mgr.admit_write(mgr.zones[2], mgr.zones[2].zslba, 1)
        assert status is Status.TOO_MANY_ACTIVE_ZONES

    def test_write_at_max_open_implicitly_closes_victim(self):
        # Regression: this write used to fail with TOO_MANY_OPEN_ZONES;
        # the spec's resource management lets the controller close an
        # implicitly-opened zone to free the slot (null_blk behavior).
        mgr = manager(max_open=1, max_active=3)
        mgr.admit_write(mgr.zones[0], mgr.zones[0].zslba, 1)
        mgr.close(mgr.zones[0])
        mgr.admit_write(mgr.zones[1], mgr.zones[1].zslba, 1)
        # zone 0 is CLOSED (active), zone 1 holds the single open slot.
        status, opened = mgr.admit_write(mgr.zones[0], mgr.zones[0].wp, 1)
        assert status is Status.SUCCESS and opened
        assert mgr.zones[1].state is ZoneState.CLOSED  # evicted victim
        assert mgr.zones[0].state is ZoneState.IMPLICIT_OPEN
        assert mgr.open_count == 1
        mgr.check_invariants()

    def test_implicit_close_picks_lowest_indexed_victim(self):
        mgr = manager(max_open=2, max_active=5)
        for i in (2, 4):
            mgr.admit_write(mgr.zones[i], mgr.zones[i].zslba, 1)
        status, _ = mgr.admit_write(mgr.zones[0], mgr.zones[0].zslba, 1)
        assert status is Status.SUCCESS
        assert mgr.zones[2].state is ZoneState.CLOSED
        assert mgr.zones[4].state is ZoneState.IMPLICIT_OPEN
        mgr.check_invariants()

    def test_misplaced_write_at_max_open_evicts_nothing(self):
        mgr = manager(max_open=1, max_active=3)
        mgr.admit_write(mgr.zones[0], mgr.zones[0].zslba, 1)
        status, _ = mgr.admit_write(mgr.zones[1], mgr.zones[1].zslba + 5, 1)
        assert status is Status.ZONE_INVALID_WRITE
        # The rejected write neither opened zone 1 nor closed zone 0.
        assert mgr.zones[0].state is ZoneState.IMPLICIT_OPEN
        assert mgr.zones[1].state is ZoneState.EMPTY
        mgr.check_invariants()


class TestAppends:
    def test_append_assigns_write_pointer(self):
        mgr = manager()
        zone = mgr.zones[1]
        status, opened, lba = mgr.admit_append(zone, zone.zslba, 4)
        assert status is Status.SUCCESS and opened
        assert lba == zone.zslba
        status, opened, lba = mgr.admit_append(zone, zone.zslba, 4)
        assert status is Status.SUCCESS and not opened
        assert lba == zone.zslba + 4

    def test_append_requires_zone_start_lba(self):
        mgr = manager()
        zone = mgr.zones[1]
        status, _, lba = mgr.admit_append(zone, zone.zslba + 1, 4)
        assert status is Status.INVALID_FIELD and lba == -1

    def test_append_fills_zone(self):
        mgr = manager(size=100, cap=80)
        zone = mgr.zones[0]
        status, _, _ = mgr.admit_append(zone, zone.zslba, 80)
        assert status is Status.SUCCESS
        assert zone.state is ZoneState.FULL

    def test_append_to_full_zone_rejected(self):
        mgr = manager()
        zone = mgr.zones[0]
        mgr.admit_append(zone, zone.zslba, 80)
        status, _, _ = mgr.admit_append(zone, zone.zslba, 1)
        assert status is Status.ZONE_IS_FULL


class TestExplicitTransitions:
    def test_explicit_open_and_close(self):
        mgr = manager()
        zone = mgr.zones[0]
        assert mgr.open(zone) is Status.SUCCESS
        assert zone.state is ZoneState.EXPLICIT_OPEN
        assert mgr.open(zone) is Status.SUCCESS  # idempotent
        mgr.admit_write(zone, 0, 5)
        assert zone.state is ZoneState.EXPLICIT_OPEN  # write keeps explicit
        assert mgr.close(zone) is Status.SUCCESS
        assert zone.state is ZoneState.CLOSED
        assert mgr.close(zone) is Status.SUCCESS  # idempotent

    def test_open_promotes_implicit_to_explicit(self):
        mgr = manager()
        zone = mgr.zones[0]
        mgr.admit_write(zone, 0, 5)
        assert zone.state is ZoneState.IMPLICIT_OPEN
        assert mgr.open(zone) is Status.SUCCESS
        assert zone.state is ZoneState.EXPLICIT_OPEN
        assert mgr.open_count == 1

    def test_close_of_untouched_open_zone_returns_empty(self):
        mgr = manager()
        zone = mgr.zones[0]
        mgr.open(zone)
        assert mgr.close(zone) is Status.SUCCESS
        assert zone.state is ZoneState.EMPTY
        assert mgr.active_count == 0

    def test_open_respects_max_open(self):
        # Every slot is *explicitly* held, so there is no implicit-open
        # victim for the controller to evict: the open must fail.
        mgr = manager(max_open=2, max_active=5)
        assert mgr.open(mgr.zones[0]) is Status.SUCCESS
        assert mgr.open(mgr.zones[1]) is Status.SUCCESS
        assert mgr.open(mgr.zones[2]) is Status.TOO_MANY_OPEN_ZONES

    def test_explicit_open_at_limit_evicts_implicit_victim(self):
        # Regression: an explicit open at the max-open limit used to
        # fail even with an implicitly-opened zone available to close.
        mgr = manager(max_open=2, max_active=5)
        mgr.admit_write(mgr.zones[0], mgr.zones[0].zslba, 1)
        assert mgr.open(mgr.zones[1]) is Status.SUCCESS
        assert mgr.open(mgr.zones[2]) is Status.SUCCESS
        assert mgr.zones[0].state is ZoneState.CLOSED
        assert mgr.zones[2].state is ZoneState.EXPLICIT_OPEN
        assert mgr.open_count == 2 and mgr.active_count == 3
        mgr.check_invariants()

    def test_untouched_implicit_victim_returns_to_empty(self):
        # An implicitly-opened zone whose write pointer is still at the
        # start holds no data: evicting it is a close-to-EMPTY, so the
        # active count must drop too. (Reachable via restore_state —
        # admission itself always advances the pointer.)
        mgr = manager(max_open=1, max_active=2)
        snapshot = mgr.state_snapshot()
        snapshot[0] = (ZoneState.IMPLICIT_OPEN.value, 0, 0)
        mgr.restore_state(snapshot)
        assert mgr.open(mgr.zones[1]) is Status.SUCCESS
        assert mgr.zones[0].state is ZoneState.EMPTY
        assert mgr.open_count == 1 and mgr.active_count == 1
        mgr.check_invariants()

    def test_open_full_zone_rejected(self):
        mgr = manager()
        zone = mgr.zones[0]
        mgr.admit_write(zone, 0, 80)
        assert mgr.open(zone) is Status.INVALID_ZONE_STATE_TRANSITION

    def test_close_empty_zone_rejected(self):
        mgr = manager()
        assert mgr.close(mgr.zones[0]) is Status.INVALID_ZONE_STATE_TRANSITION


class TestFinish:
    def test_finish_pads_to_full(self):
        mgr = manager(size=100, cap=80)
        zone = mgr.zones[0]
        mgr.admit_write(zone, 0, 30)
        status, pad = mgr.finish(zone)
        assert status is Status.SUCCESS and pad == 50
        assert zone.state is ZoneState.FULL
        assert zone.wp == zone.writable_end
        assert zone.finished_pad_lbas == 50
        assert mgr.active_count == 0

    def test_finish_empty_zone_pads_full_capacity(self):
        # Regression: Empty→Full used to be rejected; the spec's Zone
        # Finish is legal from ZSE and pads the whole writable capacity.
        mgr = manager(size=100, cap=80)
        zone = mgr.zones[0]
        status, pad = mgr.finish(zone)
        assert status is Status.SUCCESS and pad == 80
        assert zone.state is ZoneState.FULL
        assert zone.wp == zone.writable_end
        assert zone.finished_pad_lbas == 80
        assert mgr.open_count == 0 and mgr.active_count == 0
        mgr.check_invariants()

    def test_finish_full_zone_is_idempotent_noop(self):
        # Regression: finish-on-FULL used to be rejected; like
        # open/close it is an idempotent SUCCESS, and it must not
        # disturb the pad recorded by an earlier finish.
        mgr = manager(size=100, cap=80)
        zone = mgr.zones[0]
        mgr.admit_write(zone, 0, 30)
        mgr.finish(zone)
        assert zone.finished_pad_lbas == 50
        status, pad = mgr.finish(zone)
        assert status is Status.SUCCESS and pad == 0
        assert zone.state is ZoneState.FULL
        assert zone.finished_pad_lbas == 50
        mgr.check_invariants()

    def test_finish_closed_zone_allowed(self):
        mgr = manager()
        zone = mgr.zones[0]
        mgr.admit_write(zone, 0, 10)
        mgr.close(zone)
        status, pad = mgr.finish(zone)
        assert status is Status.SUCCESS and pad == 70


class TestReset:
    def test_reset_returns_prior_occupancy(self):
        mgr = manager()
        zone = mgr.zones[0]
        mgr.admit_write(zone, 0, 40)
        status, occupied, pad = mgr.reset(zone)
        assert status is Status.SUCCESS
        assert (occupied, pad) == (40, 0)
        assert zone.state is ZoneState.EMPTY
        assert zone.wp == zone.zslba

    def test_reset_of_finished_zone_reports_pad(self):
        mgr = manager(size=100, cap=80)
        zone = mgr.zones[0]
        mgr.admit_write(zone, 0, 40)
        mgr.finish(zone)
        status, occupied, pad = mgr.reset(zone)
        assert status is Status.SUCCESS
        assert (occupied, pad) == (40, 40)
        assert zone.finished_pad_lbas == 0

    def test_reset_of_empty_zone_is_noop_success(self):
        mgr = manager()
        status, occupied, pad = mgr.reset(mgr.zones[0])
        assert status is Status.SUCCESS and occupied == 0 and pad == 0

    def test_reset_releases_limits(self):
        mgr = manager(max_open=1, max_active=1)
        mgr.admit_write(mgr.zones[0], 0, 10)
        status, _ = mgr.admit_write(mgr.zones[1], 100, 10)
        assert status is Status.TOO_MANY_ACTIVE_ZONES
        mgr.reset(mgr.zones[0])
        status, _ = mgr.admit_write(mgr.zones[1], 100, 10)
        assert status is Status.SUCCESS


class TestPowerLossRollback:
    """Counter accounting across the recovery arc (DESIGN.md §12)."""

    def test_rollback_to_start_returns_zone_to_empty(self):
        mgr = manager()
        zone = mgr.zones[0]
        mgr.admit_write(zone, 0, 10)
        assert mgr.power_loss_rollback(zone, 10)
        assert zone.state is ZoneState.EMPTY and zone.wp == zone.zslba
        assert mgr.open_count == 0 and mgr.active_count == 0
        mgr.check_invariants()

    def test_full_zone_with_lost_tail_reopens_closed(self):
        mgr = manager(size=100, cap=80)
        zone = mgr.zones[0]
        mgr.admit_write(zone, 0, 80)
        assert mgr.power_loss_rollback(zone, 5)
        assert zone.state is ZoneState.CLOSED and zone.wp == 75
        assert mgr.active_count == 1
        mgr.check_invariants()

    def test_full_zone_torn_to_empty_at_active_limit(self):
        mgr = manager(max_open=1, max_active=1, size=100, cap=80)
        zone = mgr.zones[0]
        mgr.admit_write(zone, 0, 80)  # FULL frees the active slot...
        mgr.admit_write(mgr.zones[1], 100, 1)  # ...which zone 1 now holds
        assert mgr.power_loss_rollback(zone, 5)
        # Reopening as CLOSED would exceed max_active: torn down instead.
        assert zone.state is ZoneState.EMPTY and zone.wp == zone.zslba
        mgr.check_invariants()

    def test_partial_rollback_keeps_open_state(self):
        mgr = manager()
        zone = mgr.zones[0]
        mgr.admit_write(zone, 0, 10)
        assert mgr.power_loss_rollback(zone, 4)
        assert zone.state is ZoneState.IMPLICIT_OPEN and zone.wp == 6
        mgr.check_invariants()

    def test_rollback_skips_retired_and_padded_zones(self):
        mgr = manager()
        finished = mgr.zones[0]
        mgr.admit_write(finished, 0, 10)
        mgr.finish(finished)
        assert not mgr.power_loss_rollback(finished, 4)  # pad is metadata
        retired = mgr.zones[1]
        mgr.admit_write(retired, retired.zslba, 10)
        mgr.retire(retired, ZoneState.READ_ONLY)
        assert not mgr.power_loss_rollback(retired, 4)
        mgr.check_invariants()


# --------------------------------------------------------------------------
# Property-based testing: no operation sequence may violate the invariants.
# --------------------------------------------------------------------------

_OPS = st.sampled_from(["write", "append", "open", "close", "finish", "reset"])


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(st.tuples(_OPS, st.integers(0, 5), st.integers(1, 90)), max_size=60),
)
def test_random_operation_sequences_preserve_invariants(ops):
    mgr = manager(num_zones=6, size=100, cap=80, max_open=2, max_active=3)
    for op, zone_index, nlb in ops:
        zone = mgr.zones[zone_index]
        if op == "write":
            mgr.admit_write(zone, zone.wp, nlb)
        elif op == "append":
            mgr.admit_append(zone, zone.zslba, nlb)
        elif op == "open":
            mgr.open(zone)
        elif op == "close":
            mgr.close(zone)
        elif op == "finish":
            mgr.finish(zone)
        elif op == "reset":
            mgr.reset(zone)
        mgr.check_invariants()


_CENSUS_OPS = st.sampled_from([
    "write", "append", "open", "close", "finish", "reset",
    "read_only", "offline", "retire", "rollback", "snapshot", "restore",
])


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(st.tuples(_CENSUS_OPS, st.integers(0, 5), st.integers(1, 90)),
                 max_size=60),
)
def test_census_matches_a_recount(ops):
    """The incremental per-state census equals a recount after every
    transition, failure injection, retirement and restore."""
    mgr = manager(num_zones=6, size=100, cap=80, max_open=2, max_active=3)
    snapshot = mgr.state_snapshot()
    for op, zone_index, nlb in ops:
        zone = mgr.zones[zone_index]
        if op == "write":
            mgr.admit_write(zone, zone.wp, nlb)
        elif op == "append":
            mgr.admit_append(zone, zone.zslba, nlb)
        elif op in ("open", "close", "finish", "reset"):
            getattr(mgr, op)(zone)
        elif op == "read_only":
            mgr.force_state(zone, ZoneState.READ_ONLY)
        elif op == "offline":
            mgr.force_state(zone, ZoneState.OFFLINE)
        elif op == "retire":
            mgr.retire(zone, ZoneState.READ_ONLY if nlb % 2 else ZoneState.OFFLINE)
        elif op == "rollback":
            mgr.power_loss_rollback(zone, nlb)
        elif op == "snapshot":
            snapshot = mgr.state_snapshot()
        else:
            mgr.restore_state(snapshot)
        recount = {state: 0 for state in ZoneState}
        for z in mgr.zones:
            recount[z.state] += 1
        assert mgr.census == recount
        mgr.check_invariants()


def test_check_invariants_catches_census_drift():
    mgr = manager()
    mgr.zones[0].state = ZoneState.OFFLINE  # bypasses the manager
    with pytest.raises(SimulationError, match="census drift"):
        mgr.check_invariants()


def test_restore_state_rejects_a_drifted_snapshot_under_python_O():
    """restore_state checks every restore in production runs, so the
    check must survive ``python -O`` stripping asserts."""
    script = (
        "from repro.zns import ZoneManager\n"
        "ZoneManager(2, 100, 80, 1, 2).restore_state("
        "[('empty', 5, 0), ('empty', 100, 0)])\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "SimulationError: EMPTY zone with advanced wp" in proc.stderr


@settings(max_examples=100, deadline=None)
@given(chunks=st.lists(st.integers(1, 30), min_size=1, max_size=20))
def test_append_assigned_lbas_are_contiguous_and_ordered(chunks):
    mgr = manager(num_zones=1, size=400, cap=300, max_open=1, max_active=1)
    zone = mgr.zones[0]
    expected = zone.zslba
    for nlb in chunks:
        status, _, lba = mgr.admit_append(zone, zone.zslba, nlb)
        if expected + nlb > zone.writable_end:
            assert status in (Status.ZONE_BOUNDARY_ERROR, Status.ZONE_IS_FULL)
            break
        assert status is Status.SUCCESS
        assert lba == expected
        expected += nlb
