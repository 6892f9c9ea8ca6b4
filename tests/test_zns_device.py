"""Unit tests for the simulated ZNS device (semantics + latency anchors)."""

import pytest

from repro.hostif import LBA_512, Command, Opcode, Status, ZoneAction
from repro.sim import ms, us
from repro.zns import ZoneState

from .util import append, make_device, mgmt, quiet_profile, read, run_cmd, write


class TestWriteSemantics:
    def test_write_advances_write_pointer(self):
        sim, dev = make_device()
        cpl = run_cmd(sim, dev, write(0, 1))
        assert cpl.ok
        assert dev.zones.zones[0].wp == 1
        assert dev.counters.completed[Opcode.WRITE] == 1

    def test_sequential_writes_fill_zone_to_full(self):
        sim, dev = make_device()
        zone = dev.zones.zones[0]
        step = 256
        for slba in range(0, zone.cap_lbas, step):
            assert run_cmd(sim, dev, write(slba, step)).ok
        assert zone.state is ZoneState.FULL

    def test_nonsequential_write_rejected(self):
        sim, dev = make_device()
        cpl = run_cmd(sim, dev, write(5, 1))
        assert cpl.status is Status.ZONE_INVALID_WRITE

    def test_out_of_range_write_rejected(self):
        sim, dev = make_device()
        cpl = run_cmd(sim, dev, write(dev.namespace.capacity_lbas, 1))
        assert cpl.status is Status.LBA_OUT_OF_RANGE

    def test_second_inflight_write_to_same_zone_rejected(self):
        sim, dev = make_device()
        first = dev.submit(write(0, 1))
        second = dev.submit(write(1, 1))
        sim.run()
        assert first.value.ok
        assert second.value.status is Status.ZONE_INVALID_WRITE

    def test_concurrent_writes_to_distinct_zones_allowed(self):
        sim, dev = make_device()
        zone_size = dev.zones.size_lbas
        events = [dev.submit(write(z * zone_size, 1)) for z in range(4)]
        sim.run()
        assert all(e.value.ok for e in events)

    def test_write_into_buffer_eventually_programs_flash(self):
        sim, dev = make_device()
        pages = 4
        nlb = pages * dev.profile.geometry.page_size // dev.namespace.block_size
        run_cmd(sim, dev, write(0, nlb))
        sim.run()  # let the flusher drain
        assert dev.backend.counters.pages_programmed == pages
        assert dev.buffer.level == 0


class TestAppendSemantics:
    def test_append_returns_assigned_lba(self):
        sim, dev = make_device()
        zone = dev.zones.zones[2]
        c1 = run_cmd(sim, dev, append(zone.zslba, 2))
        c2 = run_cmd(sim, dev, append(zone.zslba, 2))
        assert c1.assigned_lba == zone.zslba
        assert c2.assigned_lba == zone.zslba + 2

    def test_concurrent_appends_to_one_zone_all_succeed(self):
        sim, dev = make_device()
        zone = dev.zones.zones[0]
        events = [dev.submit(append(zone.zslba, 1)) for _ in range(8)]
        sim.run()
        lbas = sorted(e.value.assigned_lba for e in events)
        assert all(e.value.ok for e in events)
        assert lbas == list(range(zone.zslba, zone.zslba + 8))

    def test_append_to_non_zslba_rejected(self):
        sim, dev = make_device()
        cpl = run_cmd(sim, dev, append(1, 1))
        assert cpl.status is Status.INVALID_FIELD

    def test_append_beyond_capacity_rejected(self):
        sim, dev = make_device()
        zone = dev.zones.zones[0]
        run_cmd(sim, dev, append(zone.zslba, zone.cap_lbas))
        cpl = run_cmd(sim, dev, append(zone.zslba, 1))
        assert cpl.status is Status.ZONE_IS_FULL


class TestReadSemantics:
    def test_read_written_data(self):
        sim, dev = make_device()
        run_cmd(sim, dev, write(0, 8))
        cpl = run_cmd(sim, dev, read(0, 8))
        assert cpl.ok
        assert (dev.metrics.get("device.bytes_read").value
                == 8 * dev.namespace.block_size)

    def test_read_cannot_cross_zone_end(self):
        sim, dev = make_device()
        zone = dev.zones.zones[0]
        cpl = run_cmd(sim, dev, read(zone.end - 1, 2))
        assert cpl.status is Status.ZONE_BOUNDARY_ERROR

    def test_read_out_of_range(self):
        sim, dev = make_device()
        cpl = run_cmd(sim, dev, read(dev.namespace.capacity_lbas - 1, 2))
        assert cpl.status is Status.LBA_OUT_OF_RANGE


class TestLatencyAnchors:
    """Device-level QD1 latencies must hit the calibrated components.

    Paper totals include the host stack overhead, added by the stack
    layer; the device-side constants below are the profile's decomposed
    targets (DESIGN.md §5).
    """

    def test_write_4k_qd1_latency(self):
        sim, dev = make_device()
        run_cmd(sim, dev, write(0, 1))  # absorb implicit-open penalty
        cpl = run_cmd(sim, dev, write(1, 1))
        assert cpl.latency_ns == 5_380 + 610 + 4_800  # service + DMA + admit

    def test_first_write_pays_implicit_open_penalty(self):
        sim, dev = make_device()
        first = run_cmd(sim, dev, write(0, 1))
        second = run_cmd(sim, dev, write(1, 1))
        assert first.latency_ns - second.latency_ns == 2_020

    def test_append_4k_qd1_latency(self):
        sim, dev = make_device()
        zone = dev.zones.zones[0]
        run_cmd(sim, dev, append(zone.zslba, 1))
        cpl = run_cmd(sim, dev, append(zone.zslba, 1))
        assert cpl.latency_ns == 7_580 + 610 + 4_800 + 2_090

    def test_append_8k_is_faster_than_append_4k(self):
        sim, dev = make_device()
        zone = dev.zones.zones[0]
        run_cmd(sim, dev, append(zone.zslba, 1))
        lat4 = run_cmd(sim, dev, append(zone.zslba, 1)).latency_ns
        lat8 = run_cmd(sim, dev, append(zone.zslba, 2)).latency_ns
        assert lat8 < lat4

    def test_write_latency_beats_append_latency(self):
        """Observation #4 at the device level."""
        sim, dev = make_device()
        zone0, zone1 = dev.zones.zones[0], dev.zones.zones[1]
        run_cmd(sim, dev, write(zone0.zslba, 1))
        run_cmd(sim, dev, append(zone1.zslba, 1))
        wlat = run_cmd(sim, dev, write(zone0.zslba + 1, 1)).latency_ns
        alat = run_cmd(sim, dev, append(zone1.zslba, 1)).latency_ns
        assert wlat < alat
        assert (alat - wlat) / alat > 0.15  # paper: up to 23% difference

    def test_512_format_slower_than_4k_format(self):
        """Observation #1 at the device level."""
        sim4, dev4 = make_device()
        sim5, dev5 = make_device(lba_format=LBA_512)
        run_cmd(sim4, dev4, write(0, 1))
        run_cmd(sim5, dev5, write(0, 8))
        lat4 = run_cmd(sim4, dev4, write(1, 1)).latency_ns  # 4 KiB = 1 LBA
        lat5 = run_cmd(sim5, dev5, write(8, 8)).latency_ns  # 4 KiB = 8 LBAs
        assert lat5 > 1.3 * lat4

    def test_read_4k_qd1_latency_near_nand_read(self):
        sim, dev = make_device()
        run_cmd(sim, dev, write(0, 1))
        cpl = run_cmd(sim, dev, read(0, 1))
        assert us(68) < cpl.latency_ns < us(78)


class TestZoneManagement:
    def test_explicit_open_latency_and_state(self):
        sim, dev = make_device()
        zone = dev.zones.zones[0]
        cpl = run_cmd(sim, dev, mgmt(zone.zslba, ZoneAction.OPEN))
        assert cpl.ok
        assert zone.state is ZoneState.EXPLICIT_OPEN
        assert cpl.latency_ns == us(9.56)

    def test_close_latency(self):
        sim, dev = make_device()
        zone = dev.zones.zones[0]
        run_cmd(sim, dev, write(zone.zslba, 1))
        cpl = run_cmd(sim, dev, mgmt(zone.zslba, ZoneAction.CLOSE))
        assert cpl.ok
        assert cpl.latency_ns == us(11.01)
        assert zone.state is ZoneState.CLOSED

    def test_mgmt_on_non_zone_start_rejected(self):
        sim, dev = make_device()
        cpl = run_cmd(sim, dev, mgmt(1, ZoneAction.OPEN))
        assert cpl.status is Status.INVALID_FIELD

    def test_mgmt_on_out_of_range_slba_rejected(self):
        # Regression: an out-of-range ZSLBA used to report INVALID_FIELD
        # like a misaligned one; it is an addressing error.
        sim, dev = make_device()
        beyond = dev.namespace.capacity_lbas
        cpl = run_cmd(sim, dev, mgmt(beyond, ZoneAction.RESET))
        assert cpl.status is Status.LBA_OUT_OF_RANGE

    def test_reset_empty_zone_cheapest(self):
        sim, dev = make_device()
        zone = dev.zones.zones[0]
        cpl = run_cmd(sim, dev, mgmt(zone.zslba, ZoneAction.RESET))
        assert cpl.ok
        assert cpl.latency_ns == pytest.approx(ms(7.0), rel=0.01)

    def test_reset_latency_grows_with_occupancy(self):
        """Observation #10: reset cost is occupancy-dependent."""
        sim, dev = make_device()
        latencies = []
        for zone_index, fraction in enumerate([0.0, 0.25, 0.5, 1.0]):
            zone = dev.zones.zones[zone_index]
            dev.force_fill(zone_index, round(zone.cap_lbas * fraction))
            cpl = run_cmd(sim, dev, mgmt(zone.zslba, ZoneAction.RESET))
            assert zone.state is ZoneState.EMPTY and zone.wp == zone.zslba
            latencies.append(cpl.latency_ns)
        assert latencies == sorted(latencies)
        assert latencies[-1] == pytest.approx(ms(16.19), rel=0.01)
        assert latencies[2] == pytest.approx(ms(11.60), rel=0.01)

    def test_reset_of_finished_partial_zone_costs_more(self):
        """§III-E: a finished half-full zone resets ~3 ms slower."""
        sim, dev = make_device()
        z0, z1 = dev.zones.zones[0], dev.zones.zones[1]
        half = z0.cap_lbas // 2
        dev.force_fill(0, half)
        dev.force_fill(1, half)
        run_cmd(sim, dev, mgmt(z1.zslba, ZoneAction.FINISH))
        plain = run_cmd(sim, dev, mgmt(z0.zslba, ZoneAction.RESET)).latency_ns
        finished = run_cmd(sim, dev, mgmt(z1.zslba, ZoneAction.RESET)).latency_ns
        assert finished - plain == pytest.approx(ms(3.08), rel=0.01)

    def test_finish_latency_decreases_with_occupancy(self):
        """Observation #10: finish cost shrinks as occupancy grows."""
        sim, dev = make_device()
        latencies = []
        for zone_index, fraction in enumerate([0.01, 0.25, 0.5, 0.99]):
            zone = dev.zones.zones[zone_index]
            dev.force_fill(zone_index, max(1, round(zone.cap_lbas * fraction)))
            cpl = run_cmd(sim, dev, mgmt(zone.zslba, ZoneAction.FINISH))
            assert cpl.ok
            latencies.append(cpl.latency_ns)
        assert latencies == sorted(latencies, reverse=True)

    def test_finish_empty_zone_pads_whole_capacity(self):
        # Regression: used to be rejected; the spec permits ZSE→ZSF, so
        # the firmware pads the entire writable capacity (the most
        # expensive finish there is — dearer than any occupied zone).
        sim, dev = make_device()
        zone = dev.zones.zones[0]
        empty_cpl = run_cmd(sim, dev, mgmt(zone.zslba, ZoneAction.FINISH))
        assert empty_cpl.ok
        assert zone.state is ZoneState.FULL
        assert zone.finished_pad_lbas == zone.cap_lbas
        dev.zones.check_invariants()
        other = dev.zones.zones[1]
        dev.force_fill(other.index, other.cap_lbas // 2)
        half_cpl = run_cmd(sim, dev, mgmt(other.zslba, ZoneAction.FINISH))
        assert empty_cpl.latency_ns > half_cpl.latency_ns

    def test_finish_full_zone_is_cheap_idempotent_success(self):
        # Regression: used to be rejected; finish-on-FULL succeeds and
        # pays only the management handshake, not the padding work.
        sim, dev = make_device()
        zone = dev.zones.zones[0]
        dev.force_fill(0, zone.cap_lbas)
        cpl = run_cmd(sim, dev, mgmt(zone.zslba, ZoneAction.FINISH))
        assert cpl.ok
        assert zone.state is ZoneState.FULL
        assert zone.finished_pad_lbas == 0
        assert cpl.latency_ns < us(100)  # no pad: handshake only
        dev.zones.check_invariants()

    def test_write_during_finish_rejected(self):
        sim, dev = make_device()
        zone = dev.zones.zones[0]
        run_cmd(sim, dev, write(zone.zslba, 1))
        finish_ev = dev.submit(mgmt(zone.zslba, ZoneAction.FINISH))
        write_ev = dev.submit(write(zone.zslba + 1, 1))
        sim.run()
        assert finish_ev.value.ok
        assert write_ev.value.status is Status.INVALID_ZONE_STATE_TRANSITION


class TestForceFillEquivalence:
    def test_force_fill_matches_real_writes(self):
        sim_a, dev_a = make_device()
        sim_b, dev_b = make_device()
        zone_a, zone_b = dev_a.zones.zones[0], dev_b.zones.zones[0]
        nlb = 64
        # Real path: write then close.
        run_cmd(sim_a, dev_a, write(zone_a.zslba, nlb))
        run_cmd(sim_a, dev_a, mgmt(zone_a.zslba, ZoneAction.CLOSE))
        # Fixture path.
        assert dev_b.force_fill(0, nlb) is Status.SUCCESS
        assert zone_a.state == zone_b.state == ZoneState.CLOSED
        assert zone_a.wp == zone_b.wp
        assert dev_a.zones.active_count == dev_b.zones.active_count
        # And the reset cost derived from the state is identical.
        lat_a = run_cmd(sim_a, dev_a, mgmt(zone_a.zslba, ZoneAction.RESET)).latency_ns
        lat_b = run_cmd(sim_b, dev_b, mgmt(zone_b.zslba, ZoneAction.RESET)).latency_ns
        assert lat_a == lat_b

    def test_force_fill_to_capacity_goes_full(self):
        _, dev = make_device()
        zone = dev.zones.zones[0]
        dev.force_fill(0, zone.cap_lbas)
        assert zone.state is ZoneState.FULL

    def test_force_fill_on_nonempty_zone_rejected(self):
        sim, dev = make_device()
        run_cmd(sim, dev, write(0, 1))
        assert dev.force_fill(0, 5) is Status.INVALID_ZONE_STATE_TRANSITION


class TestInterferenceMechanics:
    def test_reads_queue_behind_buffered_writes(self):
        """§III-F mechanism: flush backlogs inflate read latency."""
        profile = quiet_profile()
        sim, dev = make_device(profile)
        block = dev.namespace.block_size
        page_lbas = dev.profile.geometry.page_size // block
        # Idle read latency first.
        run_cmd(sim, dev, write(0, page_lbas))
        sim.run()
        idle = run_cmd(sim, dev, read(0, 1)).latency_ns
        # Now stuff many pages into the buffer and read before they drain.
        zone = dev.zones.zones[0]
        next_lba = zone.wp
        for _ in range(320):
            ev = dev.submit(write(next_lba, page_lbas))
            sim.run(until=ev)
            next_lba += page_lbas
        busy = run_cmd(sim, dev, read(0, 1)).latency_ns
        assert busy > 3 * idle

    def test_reset_does_not_delay_concurrent_io(self):
        """Observation #12: resets have no effect on I/O latency."""
        profile = quiet_profile()
        sim, dev = make_device(profile)
        other = dev.zones.zones[5]
        dev.force_fill(4, dev.zones.zones[4].cap_lbas)
        # Baseline write latency without a reset running.
        run_cmd(sim, dev, write(other.zslba, 1))
        baseline = run_cmd(sim, dev, write(other.zslba + 1, 1)).latency_ns
        # Kick off a full-zone reset, then immediately write elsewhere.
        reset_ev = dev.submit(mgmt(dev.zones.zones[4].zslba, ZoneAction.RESET))
        during = run_cmd(sim, dev, write(other.zslba + 2, 1)).latency_ns
        sim.run(until=reset_ev)
        assert during == baseline

    def test_concurrent_io_inflates_reset_latency(self):
        """Observation #13: I/O mapping updates stall reset work."""
        profile = quiet_profile()
        sim, dev = make_device(profile)
        dev.force_fill(0, dev.zones.zones[0].cap_lbas)
        dev.force_fill(1, dev.zones.zones[1].cap_lbas)
        isolated = run_cmd(sim, dev, mgmt(0, ZoneAction.RESET)).latency_ns

        stop = []

        def writer():
            # Moves on to the next zone at capacity: the reset can outlast
            # a whole zone of single-LBA writes.
            index = 5
            zone = dev.zones.zones[index]
            lba = zone.zslba
            while not stop:
                if lba == zone.zslba + zone.cap_lbas:
                    index += 1
                    zone = dev.zones.zones[index]
                    lba = zone.zslba
                cpl = yield dev.submit(write(lba, 1))
                assert cpl.ok
                lba += 1

        sim.process(writer())
        zslba1 = dev.zones.zones[1].zslba
        loaded = run_cmd(sim, dev, mgmt(zslba1, ZoneAction.RESET)).latency_ns
        stop.append(True)
        assert loaded > 1.3 * isolated


class TestStateSnapshotRestore:
    """The snapshot/restore fixture the occupancy sweeps rewind with."""

    def _snapshot_view(self, dev):
        return {
            "zones": dev.zones.state_snapshot(),
            "buffer": dev.buffer.level,
        }

    def test_restore_rewinds_zone_and_buffer_state(self):
        sim, dev = make_device(quiet_profile())
        pristine = dev.state_snapshot()
        before = self._snapshot_view(dev)
        # Dirty several zones in different ways.
        run_cmd(sim, dev, write(0, 3))
        run_cmd(sim, dev, append(dev.zones.zones[1].zslba, 2))
        dev.force_fill(2, 64)
        run_cmd(sim, dev, mgmt(dev.zones.zones[2].zslba, ZoneAction.FINISH))
        sim.run()
        dev.restore_state(pristine)
        assert self._snapshot_view(dev) == before
        assert dev.zones.open_count == 0
        assert dev.zones.active_count == 0
        for zone in dev.zones.zones[:3]:
            assert zone.state is ZoneState.EMPTY
            assert zone.wp == zone.zslba

    def test_restore_reinstates_subpage_residual(self):
        sim, dev = make_device(quiet_profile())
        # Leave a stable sub-page residual in the buffer, then snapshot.
        run_cmd(sim, dev, write(0, 1))
        sim.run()
        assert dev.buffer.level > 0
        dirty = dev.state_snapshot()
        pristine_level = dev.buffer.level
        # More writes change the residual; restore brings it back.
        page_lbas = dev.profile.geometry.page_size // dev.namespace.block_size
        run_cmd(sim, dev, write(dev.zones.zones[0].wp, page_lbas))
        sim.run()
        dev.restore_state(dirty)
        assert dev.buffer.level == pristine_level

    def test_snapshot_rejects_pending_flush(self):
        import pytest

        sim, dev = make_device(quiet_profile())
        page_lbas = dev.profile.geometry.page_size // dev.namespace.block_size
        # Complete a full-page write but do NOT drain the flusher.
        run_cmd(sim, dev, write(0, page_lbas))
        with pytest.raises(RuntimeError, match="page flush"):
            dev.state_snapshot()

    def test_snapshot_rejects_inflight_command(self):
        import pytest

        sim, dev = make_device(quiet_profile())
        dev.submit(write(0, 1))
        # Run partway into the (~11 µs) write so it is genuinely in flight.
        sim.run(until=sim.timeout(us(1)))
        with pytest.raises(RuntimeError, match="in flight"):
            dev.state_snapshot()

    def test_restored_device_replays_identical_latencies(self):
        """With jitter off, a rewound device repeats the same physics —
        the property the per-rep rewind in fig5a/fig5b relies on."""
        sim, dev = make_device(quiet_profile())
        pristine = dev.state_snapshot()

        def one_rep():
            dev.force_fill(0, 256)
            fin = run_cmd(sim, dev, mgmt(0, ZoneAction.FINISH)).latency_ns
            rst = run_cmd(sim, dev, mgmt(0, ZoneAction.RESET)).latency_ns
            sim.run()
            dev.restore_state(pristine)
            return fin, rst

        assert one_rep() == one_rep()

    def test_zone_manager_restore_checks_length(self):
        import pytest

        sim, dev = make_device(quiet_profile())
        with pytest.raises(ValueError, match="zones"):
            dev.zones.restore_state([])
