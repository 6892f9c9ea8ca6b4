"""Tenant/session tier: partitions, SLO accounting, fleet determinism."""

from __future__ import annotations

import json

import pytest

from repro.apps import LsmConfig, LsmWorkload
from repro.core.experiments.common import ExperimentConfig
from repro.core.experiments.points import serialize_result
from repro.exec import execute_experiments
from repro.hostif import Command, Opcode, Status, ZoneAction
from repro.sim.engine import ms, us
from repro.tenancy import ResetStorm, Tenant, TenantScheduler, partition_zones
from repro.zns import ZoneState

from .util import make_device, quiet_profile, run_experiment


def fleet_config(**extra) -> ExperimentConfig:
    return ExperimentConfig(fleet_runtime_ns=ms(12), **extra)


def blob(result) -> str:
    return json.dumps(serialize_result(result), sort_keys=True)


class TestPartitionZones:
    def test_consecutive_disjoint(self):
        parts = partition_zones(10, [3, 3, 4])
        assert parts == [[0, 1, 2], [3, 4, 5], [6, 7, 8, 9]]

    def test_start_offset_and_overflow(self):
        assert partition_zones(8, [2], start=6) == [[6, 7]]
        with pytest.raises(ValueError):
            partition_zones(8, [5, 4])
        with pytest.raises(ValueError):
            partition_zones(8, [0])


class TestTenant:
    def test_submit_stamps_label(self):
        sim, dev = make_device()
        tenant = Tenant(dev, "a", zones=[0, 1])
        command = Command(Opcode.APPEND, slba=0, nlb=1)
        completion = sim.run(until=tenant.submit(command))
        assert completion.ok
        assert command.tenant == "a"

    def test_session_pays_stack_overhead(self):
        # Every tenant submit goes through the tenant's own host stack,
        # so latency exceeds the bare-device submit path.
        sim, dev = make_device()
        bare = sim.run(until=dev.submit(Command(Opcode.APPEND, slba=0, nlb=1)))
        sim2, dev2 = make_device()
        tenant = Tenant(dev2, "a")
        stacked = sim2.run(
            until=tenant.submit(Command(Opcode.APPEND, slba=0, nlb=1))
        )
        assert stacked.latency_ns > bare.latency_ns

    def test_slo_violation_accounting(self):
        sim, dev = make_device()
        tenant = Tenant(dev, "a", zones=[0], slo_p99_ns=1)  # 1 ns: all violate
        for _ in range(3):
            completion = sim.run(
                until=tenant.submit(Command(Opcode.APPEND, slba=0, nlb=1))
            )
            tenant.record(completion, 4096)
        assert tenant.ops == 3 and tenant.slo_violations == 3
        assert tenant.slo_met is False
        tenant.slo_p99_ns = int(tenant.p99_ns) + 1
        assert tenant.slo_met is True

    def test_error_zone_attribution(self):
        sim, dev = make_device()
        tenant = Tenant(dev, "a", zones=[0])
        zone1 = dev.zones.zones[1]
        dev.zones.force_state(zone1, ZoneState.OFFLINE)
        completion = sim.run(
            until=tenant.submit(
                Command(Opcode.ZONE_MGMT, slba=zone1.zslba,
                        action=ZoneAction.RESET)
            )
        )
        assert not completion.ok
        tenant.record_error(completion.status, zone1.zslba)
        assert list(tenant.errors_by_zone) == [1]

    def test_rng_streams_are_tenant_private(self):
        sim, dev = make_device()
        a = Tenant(dev, "a", index=0, seed=7)
        b = Tenant(dev, "b", index=1, seed=7)
        assert list(a.rng("x").integers(0, 1 << 30, 4)) != list(
            b.rng("x").integers(0, 1 << 30, 4)
        )
        # Same tenant, same stream name -> reproducible draws.
        assert list(a.rng("x").integers(0, 1 << 30, 4)) == list(
            a.rng("x").integers(0, 1 << 30, 4)
        )

    def test_duplicate_zones_rejected(self):
        sim, dev = make_device()
        with pytest.raises(ValueError):
            Tenant(dev, "a", zones=[0, 0])
        with pytest.raises(ValueError):
            Tenant(dev, "")


class TestTenantScheduler:
    def test_overlapping_partitions_rejected(self):
        sim, dev = make_device()
        scheduler = TenantScheduler(dev)
        scheduler.add_tenant(Tenant(dev, "a", zones=[0, 1]))
        with pytest.raises(ValueError, match="zone 1"):
            scheduler.add_tenant(Tenant(dev, "b", zones=[1, 2]))
        with pytest.raises(ValueError, match="duplicate"):
            scheduler.add_tenant(Tenant(dev, "a", zones=[3]))

    def test_errors_resolved_to_owning_tenant(self):
        sim, dev = make_device()
        scheduler = TenantScheduler(dev)
        victim = Tenant(dev, "victim", zones=[0])
        owner = Tenant(dev, "owner", zones=[1])
        scheduler.add_tenant(victim)
        scheduler.add_tenant(owner)
        # victim's command failed inside owner's zone 1.
        zone1 = dev.zones.zones[1]
        victim.record_error(Status.ZONE_IS_READ_ONLY, zone1.zslba)
        scheduler.add_workload(victim, ResetStorm(victim, until_ns=ms(4)))
        rows = scheduler.run()
        assert rows[0].tenant == "victim"
        assert rows[0].resets > 0
        assert rows[0].errors_by_owner == {"owner": 1}


class TestResetStorm:
    def test_write_mode_issues_real_appends(self):
        sim, dev = make_device()
        tenant = Tenant(dev, "storm", zones=[0, 1, 2])
        storm = ResetStorm(tenant, until_ns=ms(4))
        sim.run(until=storm.start())
        # Real refill traffic reaches the flash backend (force_fill
        # would leave the program counter untouched).
        assert dev.backend.counters.pages_programmed > 0
        assert tenant.resets > 0
        assert tenant.reset_latency.count == tenant.resets


class TestRetirementUnderTenancy:
    """Wear retirement mid-run lands in the owning tenant's accounting
    (DESIGN.md §17) and retired zones drop out of the reclaim loop."""

    def _retiring_plan(self):
        from repro.faults import FaultPlan, WearCurve

        # Every page program fails once; two failures retire the zone.
        return FaultPlan(name="retiring",
                         program_fail_curve=WearCurve(base=1.0),
                         program_retry_max=1, retire_read_only_after=2,
                         retire_offline_after=4)

    def test_mid_run_retirement_attributed_to_tenant(self):
        sim, dev = make_device(faults=self._retiring_plan())
        scheduler = TenantScheduler(dev)
        tenant = Tenant(dev, "log", zones=[0, 1], seed=7)
        scheduler.add_workload(
            tenant, ResetStorm(tenant, until_ns=ms(8)))
        results = scheduler.run()

        retired = [z for z in dev.zones.zones[:2]
                   if z.state in (ZoneState.READ_ONLY, ZoneState.OFFLINE)]
        assert retired, "program failures should have retired a zone"
        row = results[0]
        assert sum(row.errors.values()) > 0
        # Per-zone attribution names the retired zone, and the owner
        # roll-up resolves it back to this tenant.
        assert any(z.index in row.errors_by_zone for z in retired)
        assert row.errors_by_owner.get("log", 0) > 0

    def test_offline_zone_never_reissued(self):
        sim, dev = make_device(faults=self._retiring_plan())
        dev.zones.force_state(dev.zones.zones[1], ZoneState.OFFLINE)
        scheduler = TenantScheduler(dev)
        tenant = Tenant(dev, "log", zones=[0, 1], seed=7)
        scheduler.add_workload(
            tenant, ResetStorm(tenant, until_ns=ms(6)))
        results = scheduler.run()
        # The storm worked zone 0 but never touched the OFFLINE zone —
        # no appends, no resets, so no errors attributed to it.
        assert 1 not in results[0].errors_by_zone
        assert dev.zones.zones[1].state is ZoneState.OFFLINE


class TestLsmWorkload:
    def lsm_once(self, seed: int, faults=None):
        from repro.faults import resolve

        profile = quiet_profile(num_zones=8, zone_size_bytes=1024 * 1024,
                                zone_cap_bytes=768 * 1024)
        sim, dev = make_device(
            profile=profile,
            faults=resolve(faults) if faults else None,
        )
        tenant = Tenant(dev, "t", zones=list(range(8)), seed=seed,
                        slo_p99_ns=us(500))
        config = LsmConfig(sst_bytes=128 * 1024, append_chunk=32 * 1024,
                           flush_interval_ns=us(300), readers=2,
                           read_interval_ns=us(30))
        workload = LsmWorkload(tenant, ms(20), config)
        sim.run(until=workload.start())
        return (
            tenant.ops, tenant.bytes, tenant.latency.percentile_ns(99),
            tenant.slo_violations, tenant.resets, workload.flushes,
            workload.compactions, workload.reads, workload.stale_reads,
            sorted((s.value, c) for s, c in tenant.errors.items()),
        )

    def test_flush_compact_serve(self):
        ops, nbytes, p99, _, resets, flushes, compactions, reads, _, _ = (
            self.lsm_once(seed=3)
        )
        assert flushes > 5 and reads > 50 and ops > 0
        assert compactions > 0 and resets > 0  # reclaim loop ran

    def test_deterministic_across_runs(self):
        assert self.lsm_once(seed=5) == self.lsm_once(seed=5)
        assert self.lsm_once(seed=5) != self.lsm_once(seed=6)

    def test_deterministic_under_chaos_faults(self):
        assert (self.lsm_once(seed=5, faults="chaos")
                == self.lsm_once(seed=5, faults="chaos"))


class TestFig7Fleet:
    def test_reports_per_tenant_slo_and_inflation(self):
        result = run_experiment("fig7_fleet", fleet_config())
        modes = {row["mode"] for row in result.rows}
        assert modes == {"baseline", "reset-storm"}
        serving = [r for r in result.rows if r["workload"] == "lsm"]
        assert len(serving) == 2 * 3  # both modes x fleet_tenants
        reclaim = [r for r in result.rows if r["tenant"] == "reclaim"]
        assert len(reclaim) == 1 and reclaim[0]["resets"] > 0
        # The headline effect: victim read p99 inflated by co-location.
        assert result.meta["read_p99_inflation"] > 1.1
        violations = result.meta["slo_violations"]
        assert violations["reset-storm"] > violations["baseline"]

    def test_tenant_count_is_a_config_knob(self):
        result = run_experiment("fig7_fleet", fleet_config(fleet_tenants=2))
        baseline = [r for r in result.rows if r["mode"] == "baseline"]
        assert [r["tenant"] for r in baseline] == ["serve0", "serve1"]

    def test_bit_identical_at_any_jobs(self):
        config = fleet_config()
        serial, _ = execute_experiments(["fig7_fleet"], config, jobs=1)
        parallel, _ = execute_experiments(["fig7_fleet"], config, jobs=2)
        assert blob(serial["fig7_fleet"]) == blob(parallel["fig7_fleet"])

    def test_bit_identical_under_chaos_faults(self):
        config = fleet_config(faults="chaos", seed=11)
        serial, _ = execute_experiments(["fig7_fleet"], config, jobs=1)
        parallel, _ = execute_experiments(["fig7_fleet"], config, jobs=2)
        assert blob(serial["fig7_fleet"]) == blob(parallel["fig7_fleet"])
