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
* GC picks greedy victims (fewest valid pages, one masked ``argmin`` over
  the per-block columns; DESIGN.md §18.1), relocates the survivors in one
  call per victim, and erases.
* the untimed greedy-GC steady state a measurement starts from is built
  in bulk on numpy arrays (:meth:`PageMappedFtl.precondition`), exact to
  the per-page path above (DESIGN.md §18.6).

Blocks are ids: die ``d`` owns ``d * blocks_per_die`` up to the next
die's first id, and a block's state lives in flat per-block columns.
The FTL is pure bookkeeping (no simulated time); the device model drives
the matching NAND operations through the shared flash backend.
"""

from __future__ import annotations

import pickle
from array import array
from collections import deque
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..flash.geometry import FlashGeometry
from ..sim.engine import SimulationError

if TYPE_CHECKING:
    from .gc import GcPolicy

__all__ = ["PageMappedFtl", "FtlFullError"]


class FtlFullError(RuntimeError):
    """Raised when an allocation finds no free block anywhere."""


_FULL = "no allocatable block outside the GC reserve"

#: Pages the bulk build's fill deals at a time (bounds its temporaries).
_FILL_CHUNK = 1 << 16

#: The flat arrays: the two maps and the per-block columns.
_ARRAYS = ("_l2p", "_back", "_valid", "_write_slot", "_bad")
#: The columns' zero-copy numpy views, rebuilt rather than stored.
_VIEWS = ("_valid_np", "_slot_np", "_bad_np")


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
        self._total_blocks = n_blocks = geometry.total_blocks
        self.overprovision = overprovision
        self.pages_per_block = geometry.pages_per_block
        blocks_per_die = self.blocks_per_die = (
            geometry.planes_per_die * geometry.blocks_per_plane)
        self._pages_per_die = blocks_per_die * self.pages_per_block
        self.logical_pages = int(geometry.total_pages * (1 - overprovision))
        if self.logical_pages <= 0:
            raise ValueError("geometry too small for any logical capacity")
        #: Flat logical→physical map and physical→logical back-map (``-1``
        #: unmapped; DESIGN.md §18.2), and the number of mapped pages. The
        #: typecode, also their numpy dtype, is int32 when every physical
        #: page id fits.
        code = "i" if geometry.total_pages <= np.iinfo(np.int32).max else "q"
        self._l2p = array(code, [-1]) * self.logical_pages
        self._back = array(code, [-1]) * geometry.total_pages
        self._mapped = 0
        #: Per-block columns, indexed by block id: valid pages, next write
        #: slot, and a nonzero flag on a retired (bad) block.
        self._valid = array("i", [0]) * n_blocks
        self._write_slot = array("i", [0]) * n_blocks
        self._bad = array("i", [0]) * n_blocks
        self._bind_views()
        if not 0 <= spare_blocks_per_die < blocks_per_die:
            raise ValueError(
                f"spare_blocks_per_die must be in [0, {blocks_per_die}), "
                f"got {spare_blocks_per_die}")
        self.spare_blocks_per_die = spare_blocks_per_die
        self._free: list[deque[int]] = []
        #: Bad-block management (DESIGN.md §17): factory spares held out
        #: of circulation until an erase failure retires a block, plus
        #: the retired set and the replacement blocks promoted from the
        #: spare pool (accesses to those pay the remap indirection).
        self._spare: list[deque[int]] = []
        self.bad_blocks: set[int] = set()
        self.remapped_blocks: set[int] = set()
        in_use = blocks_per_die - spare_blocks_per_die
        for first in range(0, n_blocks, blocks_per_die):
            self._free.append(deque(range(first, first + in_use)))
            self._spare.append(deque(range(first + in_use, first + blocks_per_die)))
        #: Each die's active block per stream, ``-1`` for none.
        self._user_active = [-1] * geometry.total_dies
        self._gc_active = [-1] * geometry.total_dies
        self._die_cursor = 0
        #: The last user-path walk failed, and no user-stream block was
        #: taken since (see :meth:`commit_write`).
        self._user_refused = False
        self.free_block_count = n_blocks - spare_blocks_per_die * geometry.total_dies
        self.total_user_pages_written = 0
        self.total_gc_pages_copied = 0

    def _bind_views(self) -> None:
        """Numpy views of the columns, sharing their buffers."""
        self._valid_np = np.frombuffer(self._valid, np.int32)
        self._slot_np = np.frombuffer(self._write_slot, np.int32)
        self._bad_np = np.frombuffer(self._bad, np.int32)

    # -- copies ----------------------------------------------------------------
    def snapshot(self) -> tuple[dict, bytes]:
        """A copy of the FTL: the flat arrays, each copied as one buffer,
        and a pickle of everything else (pools, actives, sets, counters)."""
        rest = {name: value for name, value in vars(self).items()
                if name not in _ARRAYS and name not in _VIEWS}
        return ({name: getattr(self, name)[:] for name in _ARRAYS},
                pickle.dumps(rest, pickle.HIGHEST_PROTOCOL))

    @classmethod
    def from_snapshot(cls, snapshot: tuple[dict, bytes]) -> PageMappedFtl:
        """A new FTL equal to the one :meth:`snapshot` copied; the
        snapshot stays untouched, so it can be restored again."""
        arrays, rest = snapshot
        ftl = cls.__new__(cls)
        vars(ftl).update(pickle.loads(rest))
        for name, values in arrays.items():
            setattr(ftl, name, values[:])
        ftl._bind_views()
        ftl._user_refused = False
        return ftl

    # -- introspection -----------------------------------------------------
    @property
    def free_fraction(self) -> float:
        return self.free_block_count / self._total_blocks

    def mapped_pages(self) -> int:
        return self._mapped

    def lookup(self, logical_page: int) -> Optional[int]:
        """Physical page id of a logical page, or None if unmapped."""
        self._check_logical(logical_page)
        physical = self._l2p[logical_page]
        return None if physical < 0 else physical

    def die_of_physical(self, physical_page: int) -> int:
        return physical_page // self._pages_per_die

    def check_invariants(self) -> None:
        """Raise :class:`SimulationError` if a mapping or pool invariant
        fails (used by property tests). Explicit raises, not
        ``assert``, so ``python -O`` keeps the check.

        One pass over the back-map, read in place as one array, checks
        every set slot against the L2P. Distinct slots are distinct
        physical pages, so the slots that pass map distinct logical pages;
        the L2P direction then holds iff the L2P maps exactly as many pages
        as the back-map holds."""
        l2p = np.frombuffer(self._l2p, self._l2p.typecode)
        # Row i is block i: flat index i * pages_per_block + slot.
        back = np.frombuffer(self._back, self._back.typecode).reshape(
            self._total_blocks, -1)
        # Only -1 means unmapped: any other entry out of range is corruption.
        for name, entries, bound in (("L2P", l2p, back.size),
                                     ("back-map", back, self.logical_pages)):
            if entries.min() < -1 or entries.max() >= bound:
                raise SimulationError(f"{name} entry out of range")
        live = back >= 0
        if (live.sum(axis=1) != self._valid_np).any():
            raise SimulationError("valid_count drift")
        if (live & (np.arange(self.pages_per_block) >= self._slot_np[:, None])).any():
            raise SimulationError("mapped slot beyond the write slot")
        physical = np.flatnonzero(live)
        if (l2p[back.ravel()[physical]] != physical).any():
            raise SimulationError("back-map entry missing from L2P")
        mapped = int(np.count_nonzero(l2p >= 0))
        if mapped != len(physical):
            raise SimulationError("L2P and back-map disagree")
        if mapped != self._mapped:
            raise SimulationError("mapped-page counter drift")
        free = [b for pool in self._free for b in pool]
        spare = [b for pool in self._spare for b in pool]
        active = [b for b in self._user_active + self._gc_active if b >= 0]
        pooled = free + spare + active + sorted(self.bad_blocks)
        if len(pooled) != len(set(pooled)):
            raise SimulationError("free, spare and active pools and bad blocks overlap")
        if set(np.flatnonzero(self._bad_np).tolist()) != self.bad_blocks:
            raise SimulationError("bad-block flags disagree with the bad-block set")
        if self.free_block_count != len(free):
            raise SimulationError("free-block count drift")
        if self._slot_np[free + spare].any():
            raise SimulationError("pooled block not erased")

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

        After a refusal the next one costs one check: while no user-stream
        block has been taken since and ``free_block_count <= reserve``, no
        die can take a block and none has room, so the walk would fail
        again, and a failed walk leaves the die cursor where it was.
        """
        self._check_logical(logical_page)
        if self._user_refused and self.free_block_count <= reserve:
            raise FtlFullError(_FULL)
        try:
            physical = self._allocate(self._user_active, logical_page, reserve)
        except FtlFullError:
            self._user_refused = True
            raise
        # A refused walk is followed by success only through a block take.
        self._user_refused = False
        old = self._l2p[logical_page]
        if old < 0:
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
        if old < 0:
            return False
        self._l2p[logical_page] = -1
        self._mapped -= 1
        self._invalidate_physical(old)
        return True

    # -- garbage collection ----------------------------------------------------
    def pick_victim(self, exclude: Optional[set[int]] = None) -> Optional[int]:
        """Greedy victim: the id of the full block with the fewest valid
        pages that has at least one garbage page and is not bad; ties go to
        the lowest block id. ``None`` when no block qualifies.

        ``exclude`` skips blocks already being collected (lets a pipelined
        GC pick several victims concurrently). Picking changes nothing, so
        asking twice returns the same block.

        One masked ``argmin`` over the valid counts: blocks outside the
        mask read ``pages_per_block``, above any collectable count, and
        ``argmin`` returns the first (lowest-id) minimum, so the pick is
        the minimum of ``valid × total_blocks + id`` (DESIGN.md §18.1).
        """
        collectable = self._collectable()
        if exclude:
            collectable[list(exclude)] = False
        victim = int(np.where(collectable, self._valid_np, self.pages_per_block).argmin())
        return victim if collectable[victim] else None

    def relocate_block(self, victim: int) -> list[int]:
        """Move every valid page out of a victim block; returns the new
        physical pages in slot order.

        The caller simulates one read (victim die) + program (new page's
        die) per returned page, then erases the victim. Every set slot is
        live: an overwrite or trim clears the back-map slot, so a slot
        still set always matches the L2P and none can be stale.

        The victim's own pages skip :meth:`_invalidate_physical`: its
        count falls as pages leave. If an allocation raises
        :class:`FtlFullError` partway, the pages already moved stay moved
        and counted in ``total_gc_pages_copied``, the rest stay mapped in
        the victim, and the victim's valid count counts them.
        """
        base = victim * self.pages_per_block
        back, l2p, valid = self._back, self._l2p, self._valid
        gc_active = self._gc_active
        allocate = self._allocate
        moved: list[int] = []
        try:
            for physical, logical in enumerate(back[base:base + self.pages_per_block], base):
                if logical < 0:
                    continue
                new_physical = allocate(gc_active, logical)
                back[physical] = -1
                valid[victim] -= 1
                l2p[logical] = new_physical
                moved.append(new_physical)
        finally:
            self.total_gc_pages_copied += len(moved)
        return moved

    def erase(self, victim: int) -> None:
        """Recycle a victim block (caller simulates the NAND erase)."""
        self._require_collected(victim, "erasing")
        self._detach(victim)
        self._clear_back_map(victim)
        self._write_slot[victim] = 0
        self._free[victim // self.blocks_per_die].append(victim)
        self.free_block_count += 1

    def retire_block(self, victim: int) -> Optional[int]:
        """Bad-block management: pull a failed-erase victim out of
        circulation and promote a factory spare in its place.

        The victim must be collected (no valid pages). Returns the
        promoted spare's block id — flagged in ``remapped_blocks`` so the
        device charges the remap-table indirection on later accesses —
        or ``None`` when the die's spare pool is exhausted (the die
        simply shrinks: one fewer block in rotation).
        """
        self._require_collected(victim, "retiring")
        self._detach(victim)
        self.bad_blocks.add(victim)
        self._bad[victim] = 1
        self._clear_back_map(victim)
        self._write_slot[victim] = self.pages_per_block  # full forever: never allocated
        die = victim // self.blocks_per_die
        spares = self._spare[die]
        if not spares:
            return None
        spare = spares.popleft()
        self.remapped_blocks.add(spare)
        self._free[die].append(spare)
        self.free_block_count += 1
        return spare

    # -- internals ----------------------------------------------------------
    def _check_logical(self, logical_page: int) -> None:
        if not 0 <= logical_page < self.logical_pages:
            raise ValueError(
                f"logical page {logical_page} out of range [0, {self.logical_pages})"
            )

    def _require_collected(self, block: int, doing: str) -> None:
        if self._valid[block]:
            raise ValueError(
                f"{doing} block {block} with {self._valid[block]} valid pages")

    def _invalidate_physical(self, physical: int) -> None:
        if self._back[physical] < 0:
            raise ValueError(f"double invalidate of physical page {physical}")
        self._back[physical] = -1
        self._valid[physical // self.pages_per_block] -= 1

    def _clear_back_map(self, block: int) -> None:
        pages_per_block = self.pages_per_block
        base = block * pages_per_block
        unmapped = array(self._back.typecode, [-1]) * pages_per_block
        self._back[base:base + pages_per_block] = unmapped

    def _detach(self, victim: int) -> None:
        """Forget a recycled block as the active block of the stream that
        filled it, so that stream cannot keep writing into a pooled block."""
        die = victim // self.blocks_per_die
        if self._user_active[die] == victim:
            self._user_active[die] = -1
        if self._gc_active[die] == victim:
            self._gc_active[die] = -1

    def _allocate(self, active_set: list[int], logical: int, reserve: int = 0) -> int:
        dies = self._dies
        full = self.pages_per_block
        write_slot = self._write_slot
        for _ in range(dies):
            die = self._die_cursor
            self._die_cursor = (die + 1) % dies
            block = active_set[die]
            if block < 0 or write_slot[block] == full:
                if self.free_block_count <= reserve:
                    continue  # don't eat into the GC reserve
                block = self._take_free_block(die)
                if block < 0:
                    continue
                active_set[die] = block
            slot = write_slot[block]
            write_slot[block] = slot + 1
            physical = block * full + slot
            self._back[physical] = logical
            self._valid[block] += 1
            return physical
        raise FtlFullError(_FULL)

    def _take_free_block(self, die: int) -> int:
        """The die's next pooled block, or ``-1`` when its pool is empty."""
        pool = self._free[die]
        if not pool:
            return -1
        self.free_block_count -= 1
        return pool.popleft()

    def _collectable(self) -> np.ndarray:
        """Mask of the blocks :meth:`pick_victim` may return: full, not
        fully valid and not bad."""
        # A block still accepting writes (every active block) is never
        # full; a full block is collectable even while still referenced as
        # a stream's most-recent active block.
        full = self.pages_per_block
        return (self._slot_np == full) & (self._valid_np < full) & (self._bad_np == 0)


#: Stream rows of :class:`_SteadyStateBuild`'s per-die active-block table.
_USER, _GC = 0, 1


class _SteadyStateBuild:
    """A pristine :class:`PageMappedFtl` mirrored on numpy arrays, where the
    precondition's fill, overwrites and GC run as array operations.

    It holds the FTL's two flat maps in the FTL's own layout and element
    type, the L2P (``-1`` unmapped) and the back-map indexed by physical
    page, so :meth:`write_to` copies them in as buffers. It also holds
    per-block valid counts, a full-block mask, each die's free pool as a
    ring buffer (``pool`` row, ``head``, ``count``), and per stream and
    die the active block (``-1`` none) with its write slot
    (``pages_per_block`` when there is none, so a missing and a full
    active block both mean: take a pooled block before the next page).
    """

    def __init__(self, ftl: PageMappedFtl):
        pages_per_block = self.pages_per_block = ftl.pages_per_block
        dies = self.n_dies = ftl._dies
        n_blocks = ftl._total_blocks
        self.blocks_per_die = n_blocks // dies
        index = np.dtype(ftl._back.typecode)
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
                raise FtlFullError(_FULL)
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
        """``commit_write`` of logical pages ``0 .. mapped-1``, in order,
        dealt ``_FILL_CHUNK`` pages at a time: ``deal(a)`` then
        ``deal(b)`` is ``a + b`` calls of ``_allocate``, and the chunks
        keep the deal's temporaries from growing with the device."""
        for first in range(0, mapped, _FILL_CHUNK):
            physical = self.deal(_USER, min(_FILL_CHUNK, mapped - first))
            self.l2p[first:first + len(physical)] = physical
            self.back[physical] = np.arange(first, first + len(physical))
            self.valid += np.bincount(physical // self.pages_per_block,
                                      minlength=len(self.valid))

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
        stop = 0  # the fewest free blocks at which GC stops
        while not policy.should_stop(stop / n_blocks):
            stop += 1
        done = 0
        while done < len(writes):
            if self.free <= trigger:
                self.collect(stop)
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

    def collect(self, stop: int) -> None:
        """Greedy GC until ``stop`` blocks are free or no victim is left.

        Victims come in :meth:`PageMappedFtl.pick_victim`'s
        ``(valid_count, block_id)`` order, as one sorted array of ``valid ×
        total_blocks + id`` keys per call. It starts as every full block
        with garbage in it: within a call no page is overwritten, so the
        only counts that change are a victim's, which leaves the order, and
        those of the GC-stream blocks being written. A block the GC stream takes from a pool
        fills with valid pages only; one it was already writing, with
        garbage in it, joins the order when it fills (DESIGN.md §18.7).

        The victims are relocated in runs, each with one deal, as long as
        :meth:`run_length` finds a run equal to relocating them one by one
        (DESIGN.md §18.8).
        """
        n_blocks = len(self.valid)
        pages_per_block = self.pages_per_block
        collectable = np.flatnonzero(self.full & (self.valid < pages_per_block))
        order = np.sort(self.valid[collectable] * n_blocks + collectable)
        writing = [block for block, slot in zip(self.active[_GC].tolist(),
                                                self.slot[_GC].tolist())
                   if slot < pages_per_block and self.valid[block] < slot]
        while len(order) and self.free < stop:
            # Each victim frees at most one block: none of the first
            # ``stop - free`` can find GC stopped.
            run = order[:stop - self.free]
            run = run[:self.run_length(run, writing)]
            order = order[len(run):]
            self.relocate(run % n_blocks)
            if writing and self.full[writing].any():
                for block in writing:
                    if self.full[block]:
                        key = int(self.valid[block]) * n_blocks + block
                        order = np.insert(order, np.searchsorted(order, key), key)
                writing = [block for block in writing if not self.full[block]]

    def run_length(self, run: np.ndarray, writing: list[int]) -> int:
        """How many of the next victims, whose keys are ``run`` in order,
        one deal relocates exactly as one deal per victim would (at least
        one).

        Between victims, erasing one appends it to its die's pool. That
        changes the GC stream's later pages only on a die that used up its
        room from before the run: a die with no room left is skipped by
        the deal, and a die with room takes its pooled blocks in order,
        the freed ones last. So victim ``i`` may join unless some earlier
        victim ``j``'s die runs out of room, and ``j`` is erased, before
        the last of the run's pages. Nor may it join if a block of
        ``writing`` (the partly written GC-stream blocks with garbage in
        them) fills before victim ``i``'s pages with a key below victim
        ``i``'s: that block comes first in the victim order.
        """
        pages_per_block, n_blocks = self.pages_per_block, len(self.valid)
        victims = run % n_blocks
        ends = np.cumsum(run // n_blocks)  # pages dealt once each victim is relocated
        gc_slot = self.slot[_GC]
        room = pages_per_block - gc_slot + pages_per_block * self.count
        rank = (self.die_ids - self.cursor) % self.n_dies

        def through(dies: np.ndarray, page: np.ndarray) -> np.ndarray:
            """Pages dealt up to and including die ``dies``' ``page``-th:
            one round per page, over the dies with room left, by rank."""
            page = page[:, None]
            return (np.minimum(room, page - 1).sum(axis=1)
                    + ((rank < rank[dies, None]) & (room >= page)).sum(axis=1) + 1)

        dry = np.where(room > 0, through(self.die_ids, room), 0)
        # Victim j is harmless while the run's pages end by the time both
        # its die runs dry and it is erased.
        harmless_until = np.minimum.accumulate(
            np.maximum(ends, dry[victims // self.blocks_per_die]))
        joins = harmless_until[:-1] >= ends[1:]
        if writing:
            blocks = np.array(writing)
            dies = blocks // self.blocks_per_die
            left = pages_per_block - gc_slot[dies]
            keys = (self.valid[blocks] + left) * n_blocks + blocks
            for fill, key in zip(through(dies, left).tolist(), keys.tolist()):
                joins &= (ends[:-1] < fill) | (run[1:] < key)
        return len(run) if joins.all() else int(np.argmin(joins)) + 1

    def relocate(self, victims: np.ndarray) -> None:
        """``relocate_block`` then ``erase`` of each full victim block, in
        order, with one deal for all their valid pages (a run that
        :meth:`run_length` accepts)."""
        pages_per_block = self.pages_per_block
        rows = self.back.reshape(-1, pages_per_block)
        logicals = rows[victims]
        logicals = logicals[logicals >= 0]
        if len(logicals):
            physical = self.deal(_GC, len(logicals))
            self.back[physical] = logicals
            self.l2p[logicals] = physical
            self.valid += np.bincount(physical // pages_per_block, minlength=len(self.valid))
        rows[victims] = -1
        self.valid[victims] = 0
        self.full[victims] = False
        per_die = self.blocks_per_die
        dies = victims // per_die
        stream, index = np.nonzero(self.active[:, dies] == victims)
        self.active[stream, dies[index]] = -1
        self.slot[stream, dies[index]] = pages_per_block
        pool, head, count = self.pool, self.head, self.count
        for victim in victims.tolist():
            die = victim // per_die
            pool[die, (head[die] + count[die]) % per_die] = victim
            count[die] += 1
        self.free += len(victims)

    def write_to(self, ftl: PageMappedFtl, mapped: int) -> None:
        """Store the built state in ``ftl``, whose logical pages
        ``0 .. mapped-1`` are the mapped ones."""
        code = ftl._back.typecode
        ftl._l2p, ftl._back = array(code), array(code)
        ftl._l2p.frombytes(memoryview(self.l2p).cast("B"))
        ftl._back.frombytes(memoryview(self.back).cast("B"))
        ftl._mapped = mapped
        ftl._valid_np[:] = self.valid
        slots = np.where(self.full, self.pages_per_block, 0)
        active = self.active >= 0
        slots[self.active[active]] = self.slot[active]
        ftl._slot_np[:] = slots
        ftl._user_active[:] = self.active[_USER].tolist()
        ftl._gc_active[:] = self.active[_GC].tolist()
        for die in range(self.n_dies):
            ring = (self.head[die] + np.arange(self.count[die])) % self.blocks_per_die
            ftl._free[die] = deque(self.pool[die, ring].tolist())
        ftl._die_cursor = self.cursor
        ftl.free_block_count = self.free
        ftl._user_refused = False
