"""Page-mapped FTL for the conventional (block-interface) SSD model.

This is the substrate that makes the §III-F comparison meaningful: unlike
ZNS — where the host controls reclamation via ``reset`` — a conventional
SSD hides flash erase-before-write behind a logical-to-physical page map
and reclaims space with device-internal garbage collection.

Structure:

* the logical space is ``(1 - overprovision)`` of the raw flash capacity,
* each die keeps a pool of free blocks, one *user* active block and one
  *GC* active block (separated write streams),
* writes allocate the next slot of the user active block on a
  round-robin die cursor, remap the logical page, and invalidate the old
  physical page,
* GC picks greedy victims (fewest valid pages), relocates the survivors
  in one call per victim, and erases. Victims come from a lazy
  ``(valid_count, block_id)`` min-heap rather than a scan over every
  block (DESIGN.md §18).
* the untimed greedy-GC steady state a measurement starts from is built
  in bulk on numpy arrays (:meth:`PageMappedFtl.precondition`), exact to
  the per-page path above (DESIGN.md §18.6).

The FTL is pure bookkeeping (no simulated time); the device model drives
the matching NAND operations through the shared flash backend.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..flash.geometry import FlashGeometry
from ..sim.engine import SimulationError

if TYPE_CHECKING:
    from .gc import GcPolicy

__all__ = ["Block", "PageMappedFtl", "FtlFullError"]

#: The victim heap is rebuilt from the blocks once it holds more than
#: this many entries per block (stale entries pile up between pops).
VICTIM_HEAP_SLACK = 4


class FtlFullError(RuntimeError):
    """Raised when an allocation finds no free block anywhere."""


class Block:
    """One erase block: slot→logical back-map and validity accounting."""

    __slots__ = ("block_id", "die", "slot_to_logical", "write_slot", "valid_count")

    def __init__(self, block_id: int, die: int, pages_per_block: int):
        self.block_id = block_id
        self.die = die
        self.slot_to_logical = [-1] * pages_per_block
        self.write_slot = 0
        self.valid_count = 0

    @property
    def is_full(self) -> bool:
        return self.write_slot >= len(self.slot_to_logical)


class PageMappedFtl:
    """Logical→physical page mapping with per-die block pools."""

    def __init__(self, geometry: FlashGeometry, overprovision: float = 0.07,
                 spare_blocks_per_die: int = 0):
        if not 0 <= overprovision < 1:
            raise ValueError(f"overprovision must be in [0, 1), got {overprovision}")
        self.geometry = geometry
        #: Geometry totals read on every allocation and every watermark
        #: check, stored once instead of recomputed through properties.
        self._dies = geometry.total_dies
        self._total_blocks = geometry.total_blocks
        self.overprovision = overprovision
        self.pages_per_block = geometry.pages_per_block
        self.logical_pages = int(geometry.total_pages * (1 - overprovision))
        if self.logical_pages <= 0:
            raise ValueError("geometry too small for any logical capacity")
        #: Dense logical→physical map (``None`` = unmapped) and the number
        #: of mapped entries in it.
        self._l2p: list[Optional[int]] = [None] * self.logical_pages
        self._mapped = 0
        blocks_per_die = geometry.planes_per_die * geometry.blocks_per_plane
        if not 0 <= spare_blocks_per_die < blocks_per_die:
            raise ValueError(
                f"spare_blocks_per_die must be in [0, {blocks_per_die}), "
                f"got {spare_blocks_per_die}")
        self.spare_blocks_per_die = spare_blocks_per_die
        self.blocks: list[Block] = []
        self._free: list[deque[int]] = [deque() for _ in range(geometry.total_dies)]
        #: Bad-block management (DESIGN.md §17): factory spares held out
        #: of circulation until an erase failure retires a block, plus
        #: the retired set and the replacement blocks promoted from the
        #: spare pool (accesses to those pay the remap indirection).
        self._spare: list[deque[int]] = [deque() for _ in range(geometry.total_dies)]
        self.bad_blocks: set[int] = set()
        self.remapped_blocks: set[int] = set()
        for die in range(geometry.total_dies):
            for b in range(blocks_per_die):
                block_id = die * blocks_per_die + b
                self.blocks.append(Block(block_id, die, self.pages_per_block))
                if b >= blocks_per_die - spare_blocks_per_die:
                    self._spare[die].append(block_id)
                else:
                    self._free[die].append(block_id)
        self._user_active: list[Optional[Block]] = [None] * geometry.total_dies
        self._gc_active: list[Optional[Block]] = [None] * geometry.total_dies
        self._die_cursor = 0
        self.free_block_count = (
            geometry.total_blocks - spare_blocks_per_die * geometry.total_dies
        )
        self.total_user_pages_written = 0
        self.total_gc_pages_copied = 0
        #: Lazy victim heap of ``(valid_count, block_id)``: an entry is
        #: pushed whenever a full block's count changes, and stale entries
        #: are dropped when they surface in :meth:`pick_victim`.
        self._victims: list[tuple[int, int]] = []

    # -- introspection -----------------------------------------------------
    @property
    def free_fraction(self) -> float:
        return self.free_block_count / self._total_blocks

    def mapped_pages(self) -> int:
        return self._mapped

    def write_amplification(self) -> float:
        """Cumulative WA = (user + GC copies) / user pages."""
        if self.total_user_pages_written == 0:
            return 1.0
        return (
            self.total_user_pages_written + self.total_gc_pages_copied
        ) / self.total_user_pages_written

    def lookup(self, logical_page: int) -> Optional[int]:
        """Physical page id of a logical page, or None if unmapped."""
        self._check_logical(logical_page)
        return self._l2p[logical_page]

    def die_of_physical(self, physical_page: int) -> int:
        return self.blocks[physical_page // self.pages_per_block].die

    def block_of_physical(self, physical_page: int) -> int:
        return physical_page // self.pages_per_block

    def is_remapped(self, physical_page: int) -> bool:
        """True if the page lives on a spare promoted after a bad block
        (accesses pay the firmware's remap-table indirection)."""
        return physical_page // self.pages_per_block in self.remapped_blocks

    def spare_blocks_left(self, die: int) -> int:
        return len(self._spare[die])

    def check_invariants(self) -> None:
        """Raise :class:`SimulationError` if a mapping/pool/victim-heap
        invariant fails (used by property tests). Explicit raises, not
        ``assert``, so ``python -O`` keeps the check.

        One pass over the back-maps, as one array, checks every set slot
        against the L2P. Distinct slots are distinct physical pages, so the
        slots that pass map distinct logical pages; the L2P direction then
        holds iff the L2P maps exactly as many pages as the back-maps hold."""
        blocks = self.blocks
        # Row i is blocks[i], so flat index i * pages_per_block + slot is
        # the slot's physical page.
        back = np.array([block.slot_to_logical for block in blocks])
        live = back >= 0
        if (live.sum(axis=1) != [block.valid_count for block in blocks]).any():
            raise SimulationError("valid_count drift")
        write_slots = np.array([block.write_slot for block in blocks])
        if (live & (np.arange(self.pages_per_block) >= write_slots[:, None])).any():
            raise SimulationError("mapped slot beyond the write slot")
        physical = np.flatnonzero(live)
        l2p = np.array([-1 if p is None else p for p in self._l2p])
        if (l2p[back.ravel()[physical]] != physical).any():
            raise SimulationError("back-map entry missing from L2P")
        mapped = int(np.count_nonzero(l2p >= 0))
        if mapped != len(physical):
            raise SimulationError("L2P and back-map disagree")
        if mapped != self._mapped:
            raise SimulationError("mapped-page counter drift")
        free = [b for pool in self._free for b in pool]
        spare = [b for pool in self._spare for b in pool]
        active = [block.block_id for block in self._user_active + self._gc_active
                  if block is not None]
        pooled = free + spare + active + sorted(self.bad_blocks)
        if len(pooled) != len(set(pooled)):
            raise SimulationError("free, spare and active pools and bad blocks overlap")
        if self.free_block_count != len(free):
            raise SimulationError("free-block count drift")
        if any(self.blocks[block_id].write_slot != 0 for block_id in free + spare):
            raise SimulationError("pooled block not erased")
        if not set(self._collectable_entries()) <= set(self._victims):
            raise SimulationError("collectable block without a live victim-heap entry")
        if len(self._victims) > VICTIM_HEAP_SLACK * len(self.blocks):
            raise SimulationError("victim heap past its bound")

    def check_pristine(self) -> None:
        """Raise ``ValueError`` unless nothing was ever written: no mapped
        page, no counted user or GC write, no bad block."""
        if (self._mapped or self.total_user_pages_written
                or self.total_gc_pages_copied or self.bad_blocks):
            raise ValueError(
                "precondition requires a pristine FTL: no mapped pages, "
                "no counted user or GC writes, no bad blocks"
            )

    # -- preconditioning -------------------------------------------------------
    def precondition(self, utilization: float, churn: float, seed: int,
                     policy: GcPolicy) -> None:
        """Build the greedy-GC steady state a measurement starts from.

        The result equals that of writing logical pages ``0 .. mapped-1``
        in order through :meth:`commit_write`, where ``mapped =
        int(logical_pages * utilization)``, then ``round(mapped * churn)``
        overwrites drawn by ``numpy.random.default_rng(seed).integers(0,
        mapped, …)``. Before any overwrite that finds
        ``policy.should_start``, GC collects greedy victims
        (:meth:`pick_victim`, :meth:`relocate_block`, :meth:`erase`) until
        ``policy.should_stop`` or no victim is left. The write counters
        stay 0: preconditioning is not measured traffic.

        The FTL must be pristine. The state is computed in bulk on numpy
        arrays and written into the FTL once (DESIGN.md §18.6); when an
        allocation raises :class:`FtlFullError` the FTL is left pristine.
        """
        if not 0 <= utilization <= 1:
            raise ValueError(f"utilization must be in [0, 1], got {utilization}")
        if churn < 0:
            raise ValueError("steady_state_churn must be >= 0")
        self.check_pristine()
        mapped = int(self.logical_pages * utilization)
        build = _SteadyStateBuild(self)
        if mapped:
            build.fill(mapped)
            if churn > 0:
                rng = np.random.default_rng(seed)
                build.churn(rng.integers(0, mapped, round(mapped * churn)), policy)
        build.write_to(self, mapped)

    # -- writes --------------------------------------------------------------
    def commit_write(self, logical_page: int, reserve: int = 0) -> int:
        """Remap a logical page to a fresh slot; returns the physical page.

        Invalidates the previous physical location (the flash "overwrite
        illusion"). The caller is responsible for simulating the program
        operation on the returned page's die.

        ``reserve`` free blocks are kept untouchable by this (user-path)
        allocation so garbage collection always has relocation
        destinations; :class:`FtlFullError` signals the caller to wait
        for GC rather than a corrupted state.
        """
        self._check_logical(logical_page)
        physical = self._allocate(self._user_active, logical_page, reserve)
        old = self._l2p[logical_page]
        if old is None:
            self._mapped += 1
        else:
            self._invalidate_physical(old)
        self._l2p[logical_page] = physical
        self.total_user_pages_written += 1
        return physical

    def trim(self, logical_page: int) -> bool:
        """Unmap a logical page (NVMe deallocate); True if it was mapped."""
        self._check_logical(logical_page)
        old = self._l2p[logical_page]
        if old is None:
            return False
        self._l2p[logical_page] = None
        self._mapped -= 1
        self._invalidate_physical(old)
        return True

    # -- garbage collection ----------------------------------------------------
    def pick_victim(self, exclude: Optional[set[int]] = None) -> Optional[Block]:
        """Greedy victim: the full block with the fewest valid pages that
        has at least one garbage page; ties go to the lowest block id.

        ``exclude`` skips blocks already being collected (lets a pipelined
        GC pick several victims concurrently). The victim's heap entry
        stays in place, so asking twice returns the same block.
        """
        # Only full blocks are candidates. A block still accepting writes
        # (every active block) is never full; a full block is collectable
        # even while still referenced as a stream's most-recent active
        # block. Fully valid blocks yield nothing: no entry is ever pushed
        # for them, so an entry whose count matches its block is live.
        heap = self._victims
        blocks = self.blocks
        bad = self.bad_blocks
        pages_per_block = self.pages_per_block
        skipped = []
        best: Optional[Block] = None
        while heap:
            count, block_id = heap[0]
            block = blocks[block_id]
            if (count != block.valid_count or block.write_slot != pages_per_block
                    or block_id in bad):
                heapq.heappop(heap)  # stale
            elif exclude and block_id in exclude:
                skipped.append(heapq.heappop(heap))
            else:
                best = block
                break
        for entry in skipped:
            heapq.heappush(heap, entry)
        return best

    def relocate_block(self, victim: Block) -> list[int]:
        """Move every valid page out of a victim; returns the new physical
        pages in slot order.

        The caller simulates one read (victim die) + program (new page's
        die) per returned page, then erases the victim. Every set slot is
        live: an overwrite or trim clears the back-map slot, so a slot
        still set always matches the L2P and none can be stale.

        The victim's own pages skip :meth:`_invalidate_physical`: its
        count falls as pages leave, and one heap entry is pushed for it
        at the end. If an allocation raises :class:`FtlFullError`
        partway, the pages already moved stay moved and counted in
        ``total_gc_pages_copied``, the rest stay mapped in the victim,
        and the victim's heap entry carries its remaining count.
        """
        slots = victim.slot_to_logical
        l2p = self._l2p
        gc_active = self._gc_active
        allocate = self._allocate
        moved: list[int] = []
        try:
            for slot, logical in enumerate(slots):
                if logical < 0:
                    continue
                new_physical = allocate(gc_active, logical)
                slots[slot] = -1
                victim.valid_count -= 1
                l2p[logical] = new_physical
                moved.append(new_physical)
        finally:
            if moved:
                self.total_gc_pages_copied += len(moved)
                self._push_victim(victim)
        return moved

    def erase(self, victim: Block) -> None:
        """Recycle a victim block (caller simulates the NAND erase)."""
        if victim.valid_count != 0:
            raise ValueError(
                f"erasing block {victim.block_id} with {victim.valid_count} valid pages"
            )
        self._detach(victim)
        victim.slot_to_logical = [-1] * self.pages_per_block
        victim.write_slot = 0
        self._free[victim.die].append(victim.block_id)
        self.free_block_count += 1

    def retire_block(self, victim: Block) -> Optional[Block]:
        """Bad-block management: pull a failed-erase victim out of
        circulation and promote a factory spare in its place.

        The victim must be collected (no valid pages). Returns the
        promoted spare ``Block`` — flagged in ``remapped_blocks`` so the
        device charges the remap-table indirection on later accesses —
        or ``None`` when the die's spare pool is exhausted (the die
        simply shrinks: one fewer block in rotation).
        """
        if victim.valid_count != 0:
            raise ValueError(
                f"retiring block {victim.block_id} with "
                f"{victim.valid_count} valid pages"
            )
        self._detach(victim)
        self.bad_blocks.add(victim.block_id)
        victim.slot_to_logical = [-1] * self.pages_per_block
        victim.write_slot = self.pages_per_block  # full forever: never allocated
        spares = self._spare[victim.die]
        if not spares:
            return None
        spare_id = spares.popleft()
        self.remapped_blocks.add(spare_id)
        self._free[victim.die].append(spare_id)
        self.free_block_count += 1
        return self.blocks[spare_id]

    # -- internals ----------------------------------------------------------
    def _check_logical(self, logical_page: int) -> None:
        if not 0 <= logical_page < self.logical_pages:
            raise ValueError(
                f"logical page {logical_page} out of range [0, {self.logical_pages})"
            )

    def _invalidate_physical(self, physical: int) -> None:
        block = self.blocks[physical // self.pages_per_block]
        slot = physical % self.pages_per_block
        if block.slot_to_logical[slot] < 0:
            raise ValueError(f"double invalidate of physical page {physical}")
        block.slot_to_logical[slot] = -1
        block.valid_count -= 1
        if block.write_slot == self.pages_per_block:
            self._push_victim(block)

    def _detach(self, victim: Block) -> None:
        """Forget a recycled block as the active block of the stream that
        filled it, so that stream cannot keep writing into a pooled block."""
        die = victim.die
        if self._user_active[die] is victim:
            self._user_active[die] = None
        if self._gc_active[die] is victim:
            self._gc_active[die] = None

    def _allocate(self, active_set: list[Optional[Block]], logical: int,
                  reserve: int = 0) -> int:
        dies = self._dies
        full = self.pages_per_block
        for _ in range(dies):
            die = self._die_cursor
            self._die_cursor = (die + 1) % dies
            block = active_set[die]
            # ``write_slot == full`` is ``is_full`` without the property
            # lookup: when the FTL stalls this loop runs for every die.
            if block is None or block.write_slot == full:
                if self.free_block_count <= reserve:
                    continue  # don't eat into the GC reserve
                block = self._take_free_block(die)
                if block is None:
                    continue
                active_set[die] = block
            slot = block.write_slot
            block.write_slot += 1
            block.slot_to_logical[slot] = logical
            block.valid_count += 1
            if block.write_slot == full and block.valid_count < full:
                # Filled with garbage already in it: collectable now.
                self._push_victim(block)
            return block.block_id * full + slot
        raise FtlFullError("no allocatable block outside the GC reserve")

    def _push_victim(self, block: Block) -> None:
        heap = self._victims
        heapq.heappush(heap, (block.valid_count, block.block_id))
        if len(heap) > VICTIM_HEAP_SLACK * len(self.blocks):
            self._victims = self._collectable_entries()
            heapq.heapify(self._victims)

    def _collectable_entries(self) -> list[tuple[int, int]]:
        """``(valid_count, block_id)`` of every block pick_victim may return."""
        full = self.pages_per_block
        return [
            (block.valid_count, block.block_id) for block in self.blocks
            if block.write_slot == full and block.valid_count < full
            and block.block_id not in self.bad_blocks
        ]

    def _take_free_block(self, die: int) -> Optional[Block]:
        if not self._free[die]:
            return None
        block_id = self._free[die].popleft()
        self.free_block_count -= 1
        return self.blocks[block_id]


#: Stream rows of :class:`_SteadyStateBuild`'s per-die active-block table.
_USER, _GC = 0, 1


class _SteadyStateBuild:
    """A pristine :class:`PageMappedFtl` mirrored on numpy arrays, where the
    precondition's fill, overwrites and GC run as array operations.

    It holds the L2P (``-1`` unmapped), a flat back-map indexed by
    physical page, per-block valid counts, a full-block mask, each die's
    free pool as a ring buffer (``pool`` row, ``head``, ``count``), and per
    stream and die the active block (``-1`` none) with its write slot
    (``pages_per_block`` when there is none, so a missing and a full
    active block both mean: take a pooled block before the next page).
    """

    def __init__(self, ftl: PageMappedFtl):
        pages_per_block = self.pages_per_block = ftl.pages_per_block
        dies = self.n_dies = ftl._dies
        n_blocks = ftl._total_blocks
        self.blocks_per_die = n_blocks // dies
        index = np.int32 if n_blocks * pages_per_block <= np.iinfo(np.int32).max else np.int64
        self.l2p = np.full(ftl.logical_pages, -1, index)
        self.back = np.full(n_blocks * pages_per_block, -1, index)
        self.valid = np.zeros(n_blocks, np.int64)
        self.full = np.zeros(n_blocks, bool)
        self.pool = np.zeros((dies, self.blocks_per_die), index)
        for die, pool in enumerate(ftl._free):
            self.pool[die, :len(pool)] = list(pool)
        self.head = np.zeros(dies, np.int64)
        self.count = np.array([len(pool) for pool in ftl._free], np.int64)
        self.active = np.full((2, dies), -1, np.int64)
        self.slot = np.full((2, dies), pages_per_block, np.int64)
        self.cursor = ftl._die_cursor
        self.free = ftl.free_block_count
        self.die_ids = np.arange(dies)
        #: Row ``c``: every die in round-robin order from cursor ``c``.
        self.rotations = (self.die_ids + self.die_ids[:, None]) % dies
        self.block_ids = np.arange(n_blocks)

    def deal(self, stream: int, n: int, stop_at_take: int = 0) -> np.ndarray:
        """The physical pages of ``n`` (> 0) calls of ``_allocate`` with
        reserve 0 on one stream, in call order.

        Pages go round-robin from the die cursor over the dies with room:
        the free slots of the active block plus ``pages_per_block`` per
        pooled block. A die takes its next pooled block only when it has a
        page to place, so an exactly full active block stays active. The
        pages are dealt in segments of whole rounds over a fixed set of
        dies; a segment ends where the die with the least room runs out,
        which drops out before the next round. A die's queue position ``u``
        (its write slot, then one more per page) names block ``u //
        pages_per_block`` of its queue (0 the active block, then the pool
        in order) and slot ``u % pages_per_block``. With ``stop_at_take=k``
        the deal stops after the page whose allocation takes the ``k``-th
        pooled block, so it may return fewer than ``n`` pages.
        """
        pages_per_block, per_die = self.pages_per_block, self.blocks_per_die
        active, slot = self.active[stream], self.slot[stream]
        pool, head, count = self.pool, self.head, self.count
        placed = []
        left = n
        while left:
            room = pages_per_block - slot + pages_per_block * count
            order = self.rotations[self.cursor]
            dies = order[room[order] > 0]
            k = len(dies)
            if not k:
                raise FtlFullError("no allocatable block outside the GC reserve")
            seg = min(int(room[dies].min()) * k, left)
            start = slot[dies]
            # Every active slot is >= 1 (blocks are taken for a page), so a
            # die dealt no page takes (start - 1) // pages_per_block == 0.
            got = seg // k + (self.die_ids[:k] < seg % k)
            takes = (start + got - 1) // pages_per_block
            if stop_at_take:
                taken = int(takes.sum())
                if taken < stop_at_take:
                    stop_at_take -= taken
                else:
                    # Segment positions of the takes: die rank r takes its
                    # t-th block at queue position t * pages_per_block.
                    rank = np.repeat(self.die_ids[:k], takes)
                    nth = np.arange(taken) - np.repeat(np.cumsum(takes) - takes, takes) + 1
                    at = (nth * pages_per_block - start[rank]) * k + rank
                    left = seg = int(np.partition(at, stop_at_take - 1)[stop_at_take - 1]) + 1
                    got = seg // k + (self.die_ids[:k] < seg % k)
                    takes = (start + got - 1) // pages_per_block
            position = np.arange(seg)
            rank = position % k
            die = dies[rank]
            block_index, block_slot = np.divmod(start[rank] + position // k, pages_per_block)
            block = np.where(block_index == 0, active[die],
                             pool[die, (head[die] + block_index - 1) % per_die])
            placed.append(block * pages_per_block + block_slot)
            self.full[block[block_slot == pages_per_block - 1]] = True
            last = start + got - 1
            active[dies] = np.where(
                takes > 0, pool[dies, (head[dies] + takes - 1) % per_die], active[dies])
            slot[dies] = last - takes * pages_per_block + 1
            head[dies] = (head[dies] + takes) % per_die
            count[dies] -= takes
            self.free -= int(takes.sum())
            self.cursor = (int(dies[(seg - 1) % k]) + 1) % self.n_dies
            left -= seg
        return placed[0] if len(placed) == 1 else np.concatenate(placed)

    def fill(self, mapped: int) -> None:
        """``commit_write`` of logical pages ``0 .. mapped-1``, in order."""
        physical = self.deal(_USER, mapped)
        self.l2p[:mapped] = physical
        self.back[physical] = np.arange(mapped)
        self.valid += np.bincount(physical // self.pages_per_block, minlength=len(self.valid))

    def churn(self, writes: np.ndarray, policy: GcPolicy) -> None:
        """``commit_write`` of each logical page in ``writes``, with
        watermark GC before every write that finds ``policy.should_start``.

        The writes run in batches, one per gap between GC triggers: free
        blocks fall only as user writes take them, so a batch ends at the
        write whose block take makes ``should_start`` true.
        """
        n_blocks = len(self.valid)
        trigger = 0  # the most free blocks at which GC starts
        while policy.should_start((trigger + 1) / n_blocks):
            trigger += 1
        done = 0
        while done < len(writes):
            if self.free <= trigger:
                self.collect(policy)
            if self.free > trigger:
                physical = self.deal(_USER, len(writes) - done, self.free - trigger)
            else:
                physical = self.deal(_USER, 1)  # GC could not lift it: it runs again
            self.overwrite(writes[done:done + len(physical)], physical)
            done += len(physical)

    def overwrite(self, logicals: np.ndarray, physical: np.ndarray) -> None:
        """Remap a batch of mapped logical pages to freshly dealt pages.

        A write's old page is the one the same logical page's previous
        write in the batch got, else its L2P entry before the batch; the
        last write of each logical page is the one the L2P keeps.
        """
        order = np.argsort(logicals, kind="stable")
        logicals, physical = logicals[order], physical[order]
        first = np.empty(len(logicals), bool)
        first[0] = True
        np.not_equal(logicals[1:], logicals[:-1], out=first[1:])
        old = np.where(first, self.l2p[logicals], np.roll(physical, 1))
        last = np.append(first[1:], True)
        self.back[physical] = logicals
        self.back[old] = -1
        n_blocks = len(self.valid)
        self.valid += (np.bincount(physical // self.pages_per_block, minlength=n_blocks)
                       - np.bincount(old // self.pages_per_block, minlength=n_blocks))
        self.l2p[logicals[last]] = physical[last]

    def collect(self, policy: GcPolicy) -> None:
        """Greedy GC until ``policy.should_stop`` or no victim is left."""
        n_blocks = len(self.valid)
        pages_per_block = self.pages_per_block
        no_victim = n_blocks * (pages_per_block + 1)
        while not policy.should_stop(self.free / n_blocks):
            # The victim heap's (valid_count, block_id) order, as one key.
            key = self.valid * n_blocks + self.block_ids
            key[~self.full | (self.valid == pages_per_block)] = no_victim
            victim = int(key.argmin())
            if key[victim] == no_victim:
                break
            self.relocate_and_erase(victim)

    def relocate_and_erase(self, victim: int) -> None:
        """``relocate_block`` then ``erase`` of a full victim block."""
        pages_per_block = self.pages_per_block
        back = self.back[victim * pages_per_block:(victim + 1) * pages_per_block]
        logicals = back[back >= 0]
        if len(logicals):
            physical = self.deal(_GC, len(logicals))
            self.back[physical] = logicals
            self.l2p[logicals] = physical
            np.add.at(self.valid, physical // pages_per_block, 1)
        back[:] = -1
        self.valid[victim] = 0
        self.full[victim] = False
        die = victim // self.blocks_per_die
        detach = self.active[:, die] == victim
        self.active[detach, die] = -1
        self.slot[detach, die] = pages_per_block
        self.pool[die, (self.head[die] + self.count[die]) % self.blocks_per_die] = victim
        self.count[die] += 1
        self.free += 1

    def write_to(self, ftl: PageMappedFtl, mapped: int) -> None:
        """Store the built state in ``ftl``, whose logical pages
        ``0 .. mapped-1`` are the mapped ones."""
        pages_per_block = self.pages_per_block
        ftl._l2p = self.l2p[:mapped].tolist() + [None] * (ftl.logical_pages - mapped)
        ftl._mapped = mapped
        rows = self.back.reshape(-1, pages_per_block).tolist()
        for block, row, valid, full in zip(ftl.blocks, rows, self.valid.tolist(),
                                           self.full.tolist()):
            block.slot_to_logical = row
            block.valid_count = valid
            block.write_slot = pages_per_block if full else 0
        for actives, block_ids, slots in zip((ftl._user_active, ftl._gc_active),
                                             self.active.tolist(), self.slot.tolist()):
            for die, (block_id, slot) in enumerate(zip(block_ids, slots)):
                actives[die] = ftl.blocks[block_id] if block_id >= 0 else None
                if block_id >= 0:
                    actives[die].write_slot = slot
        for die in range(self.n_dies):
            ring = (self.head[die] + np.arange(self.count[die])) % self.blocks_per_die
            ftl._free[die] = deque(self.pool[die, ring].tolist())
        ftl._die_cursor = self.cursor
        ftl.free_block_count = self.free
        ftl._victims = ftl._collectable_entries()
        heapq.heapify(ftl._victims)
