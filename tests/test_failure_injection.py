"""Failure injection: READ_ONLY / OFFLINE zones, and conventional trim."""

import pytest

from repro.hostif import Command, Opcode, Status, ZoneAction
from repro.sim import Simulator
from repro.zns import ZoneState
from repro.conv import ConvDevice

from .test_conv_device import conv_profile
from .util import append, make_device, mgmt, read, run_cmd, write


class TestZoneFailureInjection:
    def test_read_only_zone_rejects_writes_but_serves_reads(self):
        sim, dev = make_device()
        run_cmd(sim, dev, write(0, 4))
        dev.inject_zone_failure(0, ZoneState.READ_ONLY)
        assert run_cmd(sim, dev, write(4, 1)).status is Status.ZONE_IS_READ_ONLY
        assert run_cmd(sim, dev, read(0, 4)).ok

    def test_offline_zone_rejects_everything(self):
        sim, dev = make_device()
        run_cmd(sim, dev, write(0, 4))
        dev.inject_zone_failure(0, ZoneState.OFFLINE)
        assert run_cmd(sim, dev, write(4, 1)).status is Status.ZONE_IS_OFFLINE
        assert run_cmd(sim, dev, read(0, 1)).status is Status.ZONE_IS_OFFLINE
        assert run_cmd(sim, dev, append(0, 1)).status is Status.ZONE_IS_OFFLINE
        reset = run_cmd(sim, dev, mgmt(0, ZoneAction.RESET))
        assert reset.status is Status.INVALID_ZONE_STATE_TRANSITION

    def test_failure_releases_open_and_active_slots(self):
        sim, dev = make_device()
        run_cmd(sim, dev, write(0, 1))
        assert dev.zones.open_count == 1
        dev.inject_zone_failure(0, ZoneState.READ_ONLY)
        assert dev.zones.open_count == 0
        assert dev.zones.active_count == 0
        dev.zones.check_invariants()

    def test_offline_zone_loses_write_pointer(self):
        sim, dev = make_device()
        run_cmd(sim, dev, write(0, 8))
        dev.inject_zone_failure(0, ZoneState.OFFLINE)
        assert dev.zones.zones[0].occupancy_lbas == 0

    def test_only_failure_states_injectable(self):
        sim, dev = make_device()
        with pytest.raises(ValueError):
            dev.inject_zone_failure(0, ZoneState.FULL)

    def test_io_continues_on_healthy_zones(self):
        sim, dev = make_device()
        dev.inject_zone_failure(0, ZoneState.OFFLINE)
        zone1 = dev.zones.zones[1]
        assert run_cmd(sim, dev, write(zone1.zslba, 1)).ok


class TestConvTrim:
    def make(self):
        sim = Simulator()
        return sim, ConvDevice(sim, conv_profile())

    def trim(self, slba, nlb):
        return Command(Opcode.TRIM, slba=slba, nlb=nlb)

    def test_trim_unmaps_written_pages(self):
        sim, dev = self.make()
        page_lbas = dev.profile.geometry.page_size // dev.namespace.block_size
        run_cmd(sim, dev, write(0, 2 * page_lbas))
        assert dev.ftl.mapped_pages() == 2
        assert run_cmd(sim, dev, self.trim(0, 2 * page_lbas)).ok
        assert dev.ftl.mapped_pages() == 0

    def test_trim_of_unmapped_range_succeeds(self):
        sim, dev = self.make()
        assert run_cmd(sim, dev, self.trim(0, 4)).ok

    def test_trim_cost_grows_with_mapped_pages(self):
        sim, dev = self.make()
        page_lbas = dev.profile.geometry.page_size // dev.namespace.block_size
        nlb = 16 * page_lbas
        run_cmd(sim, dev, write(0, nlb))
        sim.run()
        mapped_cost = run_cmd(sim, dev, self.trim(0, nlb)).latency_ns
        unmapped_cost = run_cmd(sim, dev, self.trim(0, nlb)).latency_ns
        assert mapped_cost > unmapped_cost

    def test_trim_out_of_range_rejected(self):
        sim, dev = self.make()
        cpl = run_cmd(sim, dev, self.trim(dev.namespace.capacity_lbas, 1))
        assert cpl.status is Status.LBA_OUT_OF_RANGE

    def test_trimmed_blocks_become_gc_free_wins(self):
        """Trimmed pages are garbage: GC reclaims them without copying."""
        sim, dev = self.make()
        page_lbas = dev.profile.geometry.page_size // dev.namespace.block_size
        # Enough pages to close one block on every die (round-robin fill).
        pages = dev.profile.geometry.pages_per_block * dev.profile.geometry.total_dies
        nlb = pages * page_lbas
        for slba in range(0, nlb, 64 * page_lbas):
            run_cmd(sim, dev, write(slba, 64 * page_lbas))
        sim.run()
        for slba in range(0, nlb, 64 * page_lbas):
            run_cmd(sim, dev, self.trim(slba, 64 * page_lbas))
        victim = dev.ftl.pick_victim()
        assert victim is not None
        assert dev.ftl._valid[victim] == 0

    def test_zns_device_rejects_trim(self):
        sim, dev = make_device()
        with pytest.raises(ValueError):
            dev.submit(self.trim(0, 1))
