"""Zone-to-flash striping: which die serves which page of a zone.

Large-zone ZNS devices stripe each zone across all channels/dies so a
single zone can absorb the device's full bandwidth (the paper's §III-D
observes intra-zone parallelism matching inter-zone parallelism, and
cites Bae et al. [50] on zone striping). We stripe consecutive zone pages
round-robin over the global die list, with a per-zone rotation offset so
concurrently written zones do not march over the same dies in lockstep.

A narrower ``stripe_width`` partitions the dies into groups and confines
each zone to one group — the design point small-zone devices take (and
the axis ConfZNS-style emulators explore): per-zone bandwidth shrinks to
the group's share, zones in the same group interfere, zones in different
groups do not. :mod:`repro.zns.inference` recovers this mapping from the
outside, as Bae et al.'s host-side tool does on real hardware.
"""

from __future__ import annotations

from typing import Optional

from ..flash.geometry import FlashGeometry

__all__ = ["ZoneStriping"]

#: Per-zone die-rotation stride; coprime with any realistic die count so
#: zone starting positions spread evenly.
_ZONE_STRIDE = 7


class ZoneStriping:
    """Deterministic zone-page → die mapping (optionally group-confined)."""

    def __init__(self, geometry: FlashGeometry, zone_size_bytes: int,
                 stripe_width: Optional[int] = None):
        if zone_size_bytes <= 0 or zone_size_bytes % geometry.page_size != 0:
            raise ValueError(
                f"zone size {zone_size_bytes} must be a positive multiple of "
                f"the {geometry.page_size} B flash page"
            )
        width = geometry.total_dies if stripe_width is None else stripe_width
        if width < 1 or geometry.total_dies % width != 0:
            raise ValueError(
                f"stripe width {width} must divide the die count "
                f"{geometry.total_dies}"
            )
        self.geometry = geometry
        self.zone_size_bytes = zone_size_bytes
        self.stripe_width = width
        self._tables: dict[int, tuple[int, ...]] = {}

    @property
    def die_groups(self) -> int:
        """Number of disjoint die groups zones are assigned to."""
        return self.geometry.total_dies // self.stripe_width

    def group_of_zone(self, zone_index: int) -> int:
        """The die group a zone's data lives on."""
        if zone_index < 0:
            raise ValueError(f"zone index must be >= 0, got {zone_index}")
        return zone_index % self.die_groups

    def die_for_page(self, zone_index: int, zone_page: int) -> int:
        """Global die index serving the ``zone_page``-th page of a zone."""
        if zone_page < 0:
            raise ValueError(f"zone page must be >= 0, got {zone_page}")
        base = self.group_of_zone(zone_index) * self.stripe_width
        offset = (zone_index * _ZONE_STRIDE + zone_page) % self.stripe_width
        return base + offset

    def zone_table(self, zone_index: int) -> tuple[int, ...]:
        """A zone's stripe: its page ``p`` lives on ``table[p % stripe_width]``."""
        table = self._tables.get(zone_index)
        if table is None:
            table = tuple(self.die_for_page(zone_index, page)
                          for page in range(self.stripe_width))
            self._tables[zone_index] = table
        return table

    def dies_for_span(self, zone_index: int, offset_bytes: int, nbytes: int) -> list[tuple[int, int]]:
        """Dies (with per-die byte counts) covering a byte span of a zone.

        Returns ``[(die_index, bytes_from_that_die), ...]`` in page order —
        the fan-out set for a read request.
        """
        if offset_bytes < 0 or nbytes <= 0:
            raise ValueError("span must have non-negative offset and positive size")
        if offset_bytes + nbytes > self.zone_size_bytes:
            raise ValueError("span exceeds the zone")
        table = self.zone_table(zone_index)
        width = self.stripe_width
        page_size = self.geometry.page_size
        spans: list[tuple[int, int]] = []
        cursor = offset_bytes
        end = offset_bytes + nbytes
        while cursor < end:
            page = cursor // page_size
            page_end = (page + 1) * page_size
            take = min(end, page_end) - cursor
            spans.append((table[page % width], take))
            cursor += take
        return spans
