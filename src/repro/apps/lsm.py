"""An LSM-tree serving workload over a zone partition (paper §II-C).

The production scenario behind the paper's interference observations
(#10-#13) is a log-structured KV store serving point reads while its
own maintenance — memtable flushes and background compaction — writes
sequentially and resets reclaimed zones. This module reproduces that
shape at its performance-relevant core, directly on zone commands:

* a **flusher** appends fixed-size SSTs into the current open zone
  (sequential zone appends, chunked like a real write path), sealing
  the zone with a FINISH when it is full;
* a **compactor** picks the oldest sealed zone, reads its live SSTs
  back, appends the merged output (a configurable survivor fraction)
  into a fresh zone, and RESETs the source — the write-amplification /
  reclamation loop every LSM on ZNS runs;
* **readers** issue random point reads against the live SST catalog —
  the serving path whose p99 the tenant's SLO is measured against.

Everything runs *within* a tenant context (:mod:`repro.tenancy`): all
commands carry the tenant's label, read completions feed the tenant's
latency/SLO accounting, failures get per-zone attribution, and every
random draw comes from the tenant's named RNG sub-streams — so N
co-located LSM tenants are bit-reproducible at any ``--jobs`` and
adding one tenant never perturbs another's draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

from ..hostif.commands import Command, Opcode, ZoneAction
from ..sim.engine import Event, us
from ..sim.rng import BlockDraws

if TYPE_CHECKING:  # import cycle: tenancy pulls in the workload layer
    from ..tenancy.session import Tenant

__all__ = ["LsmConfig", "LsmWorkload"]

KIB = 1024


@dataclass(frozen=True)
class LsmConfig:
    """Shape of one LSM serving tenant's workload."""

    #: One SST's size in bytes (flush granularity).
    sst_bytes: int = 256 * KIB
    #: Chunk size for SST appends — the write path issues the SST as
    #: consecutive appends of this size, like a real fs write path.
    append_chunk: int = 64 * KIB
    #: Simulated pause between memtable flushes.
    flush_interval_ns: int = us(150)
    #: Point-read request size.
    read_bytes: int = 4 * KIB
    #: Number of concurrent reader processes (serving threads).
    readers: int = 2
    #: Mean think time between one reader's point reads.
    read_interval_ns: int = us(40)
    #: Fraction of a compacted zone's bytes that survive the merge.
    survivor_fraction: float = 0.5
    #: Start compacting once this many zones are sealed.
    compact_trigger: int = 2


@dataclass
class _Sst:
    """One live SST: where it lives and whether it is still readable."""

    zone: int
    offset: int   # bytes from the zone start
    length: int   # bytes
    live: bool = True


class LsmWorkload:
    """Flush + compact + serve over a tenant's zone partition.

    ``start()`` launches the flusher, the compactor, and ``readers``
    reader processes inside the shared simulation and returns an event
    that fires when all of them have observed ``until_ns``.
    """

    def __init__(self, tenant: "Tenant", until_ns: int,
                 config: Optional[LsmConfig] = None):
        if tenant.zones is None or len(tenant.zones) < 3:
            raise ValueError(
                "an LSM tenant needs a partition of >= 3 zones "
                "(open + sealed + compaction headroom)"
            )
        self.tenant = tenant
        self.device = tenant.device
        self.sim = tenant.sim
        self.until_ns = until_ns
        self.config = config or LsmConfig()
        block = self.device.namespace.block_size
        for name in ("sst_bytes", "append_chunk", "read_bytes"):
            value = getattr(self.config, name)
            if value <= 0 or value % block:
                raise ValueError(
                    f"{name}={value} must be a positive multiple of the "
                    f"{block} B block"
                )
        self._block = block
        zone_cap = self.device.zones.zones[tenant.zones[0]].cap_lbas * block
        self.ssts_per_zone = max(1, zone_cap // self.config.sst_bytes)
        # -- mutable store state (single-threaded inside the sim) ---------
        self._free: list[int] = list(tenant.zones)
        self._sealed: list[int] = []   # oldest first
        self._open: Optional[int] = None
        self._open_ssts = 0
        self._catalog: list[_Sst] = []
        # -- workload counters (beyond the tenant's accounting) -----------
        self.flushes = 0
        self.compactions = 0
        self.reads = 0
        self.stale_reads = 0

    # -- lifecycle --------------------------------------------------------
    def start(self) -> Event:
        processes = [self.sim.process(self._flusher()),
                     self.sim.process(self._compactor())]
        for reader in range(self.config.readers):
            processes.append(self.sim.process(self._reader(reader)))
        return self.sim.all_of(processes)

    # -- write path: memtable flushes ------------------------------------
    def _zslba(self, zone_id: int) -> int:
        return self.device.zones.zones[zone_id].zslba

    def _take_zone(self) -> Optional[int]:
        if self._open is not None:
            return self._open
        if not self._free:
            return None
        self._open = self._free.pop(0)
        self._open_ssts = 0
        return self._open

    def _flusher(self) -> Generator:
        tenant = self.tenant
        config = self.config
        draws = BlockDraws(tenant.rng("lsm-flush"))
        while self.sim.now < self.until_ns:
            # Flush cadence with a little deterministic jitter so two
            # tenants' flushers do not phase-lock against the device.
            jitter = draws.below(config.flush_interval_ns // 4 + 1)
            yield config.flush_interval_ns + jitter
            zone_id = self._take_zone()
            if zone_id is None:
                continue  # all zones sealed; wait for compaction
            offset = self.device.zones.zones[zone_id].occupancy_lbas
            offset *= self._block
            failed = False
            for chunk_start in range(0, config.sst_bytes, config.append_chunk):
                chunk = min(config.append_chunk,
                            config.sst_bytes - chunk_start)
                completion = yield from tenant.issue(Command(
                    Opcode.APPEND, slba=self._zslba(zone_id),
                    nlb=chunk // self._block))
                if not completion.ok:
                    tenant.record_error(completion.status,
                                        self._zslba(zone_id))
                    failed = True
                    break
            if failed:
                continue
            self._catalog.append(_Sst(zone_id, offset, config.sst_bytes))
            self.flushes += 1
            self._open_ssts += 1
            if self._open_ssts >= self.ssts_per_zone:
                yield from self._seal(zone_id)

    def _seal(self, zone_id: int) -> Generator:
        completion = yield from self.tenant.issue(Command(
            Opcode.ZONE_MGMT, slba=self._zslba(zone_id),
            action=ZoneAction.FINISH))
        if not completion.ok:
            self.tenant.record_error(completion.status, self._zslba(zone_id))
        self._sealed.append(zone_id)
        self._open = None
        self._open_ssts = 0

    # -- maintenance: background compaction ------------------------------
    def _compactor(self) -> Generator:
        tenant = self.tenant
        config = self.config
        while self.sim.now < self.until_ns:
            if len(self._sealed) < config.compact_trigger or not self._free:
                yield config.flush_interval_ns
                continue
            source = self._sealed.pop(0)
            victims = [s for s in self._catalog if s.zone == source and s.live]
            survivors = max(1, int(len(victims) * config.survivor_fraction))
            # Read the source SSTs back (compaction read traffic)...
            for sst in victims:
                completion = yield from tenant.issue(Command(
                    Opcode.READ,
                    slba=self._zslba(source) + sst.offset // self._block,
                    nlb=sst.length // self._block))
                if not completion.ok:
                    tenant.record_error(
                        completion.status,
                        self._zslba(source) + sst.offset // self._block)
            # ...append the merged output into a fresh zone...
            target = self._free.pop(0)
            offset = 0
            for _ in range(survivors):
                for chunk_start in range(0, config.sst_bytes,
                                         config.append_chunk):
                    chunk = min(config.append_chunk,
                                config.sst_bytes - chunk_start)
                    completion = yield from tenant.issue(Command(
                        Opcode.APPEND, slba=self._zslba(target),
                        nlb=chunk // self._block))
                    if not completion.ok:
                        tenant.record_error(completion.status,
                                            self._zslba(target))
                self._catalog.append(_Sst(target, offset, config.sst_bytes))
                offset += config.sst_bytes
            # ...and reclaim the source: drop its SSTs, reset the zone.
            for sst in victims:
                sst.live = False
            self._catalog = [s for s in self._catalog if s.live]
            completion = yield from tenant.issue(Command(
                Opcode.ZONE_MGMT, slba=self._zslba(source),
                action=ZoneAction.RESET))
            if completion.ok:
                tenant.record_reset(completion.latency_ns)
                self._free.append(source)
            else:
                tenant.record_error(completion.status, self._zslba(source))
            # Seal the output zone so compaction does not accumulate
            # open zones against the device's max-open limit.
            completion = yield from tenant.issue(Command(
                Opcode.ZONE_MGMT, slba=self._zslba(target),
                action=ZoneAction.FINISH))
            if not completion.ok:
                tenant.record_error(completion.status, self._zslba(target))
            self._sealed.append(target)
            self.compactions += 1

    # -- serving path: point reads ----------------------------------------
    def _reader(self, reader: int) -> Generator:
        tenant = self.tenant
        config = self.config
        rng = tenant.rng(f"lsm-read/{reader}")
        blocks_per_read = config.read_bytes // self._block
        while self.sim.now < self.until_ns:
            think = int(rng.exponential(config.read_interval_ns))
            yield max(1, think)
            if not self._catalog:
                continue
            sst = self._catalog[int(rng.integers(0, len(self._catalog)))]
            max_block = sst.length // self._block - blocks_per_read
            within = int(rng.integers(0, max_block + 1)) if max_block > 0 else 0
            slba = (self._zslba(sst.zone)
                    + sst.offset // self._block + within)
            completion = yield from tenant.issue(Command(
                Opcode.READ, slba=slba, nlb=blocks_per_read))
            self.reads += 1
            if completion.ok:
                tenant.record(completion, config.read_bytes)
            else:
                # The SST's zone was reset/rewritten between the catalog
                # lookup and the device's service — a stale read, the
                # LSM analogue of a cache miss racing an eviction.
                self.stale_reads += 1
                tenant.record_error(completion.status, slba)
