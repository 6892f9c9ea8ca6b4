"""Device profiles: calibration constants for the mechanistic ZNS model.

A profile bundles the flash geometry/timing with the controller- and
firmware-level constants that the paper's externally observable numbers
pin down. The ``ZN540`` profile is calibrated so that the simulated
device lands on every latency/throughput figure §III reports for the
Western Digital Ultrastar DC ZN540 (see DESIGN.md §5 for the anchor list
and EXPERIMENTS.md for paper-vs-measured values).

Mechanisms, not lookup tables:

* **Controller front-end** — a single-server pipeline whose per-command
  service time is the device's per-op IOPS cap: 1/5.38 µs ≈ 186 K write
  commands/s (the paper's unmerged-write plateau), 1/7.58 µs ≈ 132 K
  appends/s, 1/2.36 µs ≈ 424 K reads/s.
* **Write buffer** — writes are acknowledged once in the capacitor-backed
  buffer (hence ~11 µs, far below NAND tPROG); a background flusher
  programs pages to dies, capping sustained bandwidth at the flash
  program rate (~1,155 MiB/s).
* **Firmware mapping engine** — a separate unit doing per-command mapping
  updates *after* completion (so I/O latency never includes it) and all
  zone-management work at lower priority (so I/O inflates reset latency,
  but not vice versa — Observations #12/#13).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..flash.geometry import KIB, MIB, FlashGeometry
from ..flash.nand import NandTiming
from ..hostif.commands import Opcode
from ..sim.engine import ms, us

__all__ = ["DeviceProfile", "zn540", "zn540_small", "sn640"]


@dataclass(frozen=True)
class DeviceProfile:
    """All structural and calibrated constants of a simulated device."""

    name: str
    geometry: FlashGeometry
    nand: NandTiming
    channel_bandwidth: int

    # -- zoned layout (ignored by the conventional device) ----------------
    # Every zone stripes across all dies (repro.zns.ftl.ZoneStriping).
    zone_size_bytes: int
    zone_cap_bytes: int
    num_zones: int
    max_open_zones: int
    max_active_zones: int

    # -- controller front-end (serializing per-command service) -----------
    cmd_read_ns: int
    cmd_write_ns: int
    cmd_append_small_ns: int   # requests <= 4 KiB
    cmd_append_large_ns: int   # requests >= 8 KiB
    per_lba_ns_4k: int         # per-LBA mapping cost, 4 KiB LBA format
    per_lba_ns_512: int        # per-LBA mapping cost, 512 B LBA format
    subpage_penalty_ns: int    # firmware slow path for requests < 4 KiB

    # -- pipelined latency components (off the throughput-critical path) ---
    dma_bandwidth: int         # host<->device DMA, bytes/s
    write_admit_ns: int        # buffer admission
    append_alloc_ns: int       # append LBA-allocation surcharge
    implicit_open_write_ns: int
    implicit_open_append_ns: int

    # -- write buffer and flush ------------------------------------------
    write_buffer_bytes: int

    # -- zone management (firmware engine) ---------------------------------
    zone_open_ns: int
    zone_close_ns: int
    reset_base_ns: int         # reset cost of an empty zone
    reset_span_ns: int         # extra reset cost of a 100%-written zone
    reset_pad_span_ns: int     # extra reset cost of 100%-padded capacity
    reset_chunk_ns: int        # firmware work-chunk granularity
    finish_floor_ns: int       # finish cost at ~100% occupancy
    finish_pad_bandwidth: int  # capacity-marking rate, bytes/s
    finish_chunk_bytes: int

    # -- firmware mapping work per I/O command (drives Obs #12/#13) --------
    fw_read_ns: int
    fw_write_ns: int
    fw_append_ns: int

    # -- conventional-FTL knobs (ignored by the ZNS device) ----------------
    # With 7% overprovisioning a fully mapped device can never exceed ~7%
    # free blocks, so both watermarks must sit below that ceiling.
    overprovision: float = 0.07
    gc_low_watermark: float = 0.03   # free-block fraction that triggers GC
    gc_high_watermark: float = 0.055  # GC stops above this free fraction

    # -- stochastics --------------------------------------------------------
    jitter_sigma: float = 0.03
    mgmt_jitter_sigma: float = 0.055

    def __post_init__(self) -> None:
        if self.zone_cap_bytes > self.zone_size_bytes:
            raise ValueError("zone capacity cannot exceed zone size")
        if self.zone_size_bytes % (4 * KIB) != 0 or self.zone_cap_bytes % (4 * KIB) != 0:
            raise ValueError("zone size/capacity must be 4 KiB multiples")
        if self.num_zones <= 0:
            raise ValueError("num_zones must be positive")
        if not 0 <= self.overprovision < 1:
            raise ValueError("overprovision must be in [0, 1)")

    # -- derived ----------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        """Addressable capacity (zones × zone size)."""
        return self.num_zones * self.zone_size_bytes

    def cmd_service_ns(self, opcode: Opcode, nbytes: int, nlb: int, block_size: int) -> int:
        """Controller front-end service time for one command.

        The per-LBA term makes the LBA format matter (Observation #1):
        the same 4 KiB request is 1 LBA on a 4 KiB format but 8 LBAs on a
        512 B format. Sub-4 KiB requests additionally hit a firmware slow
        path.
        """
        if opcode is Opcode.READ:
            base = self.cmd_read_ns
        elif opcode is Opcode.WRITE:
            base = self.cmd_write_ns
        elif opcode is Opcode.APPEND:
            base = self.cmd_append_small_ns if nbytes <= 4 * KIB else self.cmd_append_large_ns
        else:
            raise ValueError(f"no command service time for {opcode}")
        per_lba = self.per_lba_ns_512 if block_size == 512 else self.per_lba_ns_4k
        service = base + per_lba * nlb
        if nbytes < 4 * KIB and opcode is not Opcode.READ:
            service += self.subpage_penalty_ns
        return service

    def dma_ns(self, nbytes: int) -> int:
        """Host DMA transfer time for a request payload."""
        return round(nbytes * 1e9 / self.dma_bandwidth)

    def reset_work_ns(self, occupied_lbas: int, pad_lbas: int, block_size: int) -> int:
        """Firmware unmapping work for a reset (Observation #10).

        Linear in the *fraction* of capacity that was written (real
        mappings) and in the fraction that was padding marks from a
        finish (cheaper per LBA).
        """
        cap_lbas = self.zone_cap_bytes // block_size
        occupied_frac = occupied_lbas / cap_lbas
        pad_frac = pad_lbas / cap_lbas
        return round(
            self.reset_base_ns
            + self.reset_span_ns * occupied_frac
            + self.reset_pad_span_ns * pad_frac
        )

    def finish_work_ns(self, remaining_bytes: int) -> int:
        """Firmware capacity-marking work for a finish (Observation #10)."""
        return self.finish_floor_ns + round(
            remaining_bytes * 1e9 / self.finish_pad_bandwidth
        )

    def fw_io_ns(self, opcode: Opcode) -> int:
        """Post-completion mapping-update work for one I/O command."""
        if opcode is Opcode.READ:
            return self.fw_read_ns
        if opcode is Opcode.WRITE:
            return self.fw_write_ns
        if opcode is Opcode.APPEND:
            return self.fw_append_ns
        raise ValueError(f"no firmware I/O cost for {opcode}")

    def scaled(self, **overrides) -> "DeviceProfile":
        """A copy with structural overrides (e.g. fewer zones for tests).

        Latency constants are untouched, so a scaled device preserves all
        per-operation behaviour; only capacity-derived quantities change.
        """
        return replace(self, **overrides)


def zn540(**overrides) -> DeviceProfile:
    """The calibrated Western Digital Ultrastar DC ZN540 1 TB profile.

    Zone layout straight from paper Table II: 2,048 MiB zones, 1,077 MiB
    zone capacity, 904 zones, 14 max open/active zones. Latency constants
    are calibrated to §III (see module docstring).
    """
    profile = DeviceProfile(
        name="WD Ultrastar DC ZN540 (simulated)",
        geometry=FlashGeometry(
            channels=8,
            dies_per_channel=4,
            planes_per_die=2,
            blocks_per_plane=548,
            pages_per_block=512,
            page_size=16 * KIB,
        ),
        nand=NandTiming(read_ns=us(65), program_ns=us(443), erase_ns=ms(3.5)),
        channel_bandwidth=800 * MIB,
        zone_size_bytes=2048 * MIB,
        zone_cap_bytes=1077 * MIB,
        num_zones=904,
        max_open_zones=14,
        max_active_zones=14,
        cmd_read_ns=2_210,
        cmd_write_ns=5_230,
        cmd_append_small_ns=7_430,
        cmd_append_large_ns=5_050,
        per_lba_ns_4k=150,
        per_lba_ns_512=800,
        subpage_penalty_ns=9_000,
        dma_bandwidth=6_400 * MIB,
        write_admit_ns=4_800,
        append_alloc_ns=2_090,
        implicit_open_write_ns=2_020,
        implicit_open_append_ns=2_830,
        write_buffer_bytes=112 * MIB,
        zone_open_ns=us(9.56),
        zone_close_ns=us(11.01),
        reset_base_ns=ms(7.0),
        reset_span_ns=ms(9.19),
        reset_pad_span_ns=ms(6.16),
        reset_chunk_ns=us(50),
        finish_floor_ns=ms(3.07),
        finish_pad_bandwidth=round(1_190 * MIB),
        finish_chunk_bytes=1 * MIB,
        fw_read_ns=1_350,
        fw_write_ns=5_000,
        fw_append_ns=6_500,
    )
    return profile.scaled(**overrides) if overrides else profile


def zn540_small(num_zones: int = 32, zone_size_bytes: int = 8 * MIB,
                zone_cap_bytes: int = 6 * MIB, **overrides) -> DeviceProfile:
    """A structurally shrunken ZN540 for fast tests and examples.

    Latency constants are identical to :func:`zn540`; only the zone
    layout shrinks, so unit tests can fill whole zones with real writes.
    """
    return zn540(
        num_zones=num_zones,
        zone_size_bytes=zone_size_bytes,
        zone_cap_bytes=zone_cap_bytes,
        **overrides,
    )


def sn640(**overrides) -> DeviceProfile:
    """The conventional-NVMe comparator (WD Ultrastar DC SN640 960 GB).

    The paper stresses that both SSDs "have the same hardware
    specifications" — so the profile shares the ZN540's flash backend and
    controller constants and differs only in the block-interface FTL
    knobs (overprovisioning, GC watermarks) that the conventional device
    model consumes.
    """
    base = zn540(
        name="WD Ultrastar DC SN640 (simulated)",
        gc_low_watermark=0.02,
        gc_high_watermark=0.07,
    )
    return base.scaled(**overrides) if overrides else base
