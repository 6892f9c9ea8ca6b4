"""Unit + property tests for the page-mapped FTL and GC policy."""

import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conv import ConvDevice, FtlFullError, GcPolicy, PageMappedFtl
from repro.conv import device as conv_device
from repro.conv.ftl import _GC, _USER, Block, _SteadyStateBuild
from repro.core.experiments.io_interference import conv_experiment_profile
from repro.flash import KIB, FlashGeometry
from repro.sim import SimulationError, Simulator

from .test_conv_device import ftl_state


def tiny_geometry(**overrides) -> FlashGeometry:
    base = dict(
        channels=2,
        dies_per_channel=1,
        planes_per_die=1,
        blocks_per_plane=8,
        pages_per_block=4,
        page_size=4 * KIB,
    )
    base.update(overrides)
    return FlashGeometry(**base)


def run_gc_until(ftl: PageMappedFtl, target_free: float) -> None:
    """Synchronously drain GC bookkeeping until a free fraction is reached."""
    while ftl.free_fraction < target_free:
        victim = ftl.pick_victim()
        assert victim is not None, "no victim available"
        ftl.relocate_block(victim)
        assert victim.valid_count == 0
        ftl.erase(victim)


class TestMapping:
    def test_initial_state_all_free_unmapped(self):
        ftl = PageMappedFtl(tiny_geometry(), overprovision=0.25)
        assert ftl.free_fraction == 1.0
        assert ftl.mapped_pages() == 0
        assert ftl.logical_pages == int(16 * 4 * 0.75)

    def test_write_then_lookup(self):
        ftl = PageMappedFtl(tiny_geometry(), overprovision=0.25)
        physical = ftl.commit_write(7)
        assert ftl.lookup(7) == physical
        assert ftl.lookup(8) is None

    def test_overwrite_invalidates_old_location(self):
        ftl = PageMappedFtl(tiny_geometry(), overprovision=0.25)
        first = ftl.commit_write(3)
        second = ftl.commit_write(3)
        assert first != second
        assert ftl.lookup(3) == second
        old_block = ftl.blocks[first // ftl.pages_per_block]
        assert old_block.slot_to_logical[first % ftl.pages_per_block] == -1

    def test_trim_unmaps(self):
        ftl = PageMappedFtl(tiny_geometry(), overprovision=0.25)
        ftl.commit_write(3)
        assert ftl.trim(3) is True
        assert ftl.lookup(3) is None
        assert ftl.trim(3) is False

    def test_out_of_range_logical_rejected(self):
        ftl = PageMappedFtl(tiny_geometry(), overprovision=0.25)
        with pytest.raises(ValueError):
            ftl.lookup(ftl.logical_pages)
        with pytest.raises(ValueError):
            ftl.commit_write(-1)

    def test_writes_spread_across_dies(self):
        ftl = PageMappedFtl(tiny_geometry(), overprovision=0.25)
        dies = {ftl.die_of_physical(ftl.commit_write(i)) for i in range(4)}
        assert dies == {0, 1}

    def test_overprovision_validation(self):
        with pytest.raises(ValueError):
            PageMappedFtl(tiny_geometry(), overprovision=1.0)
        with pytest.raises(ValueError):
            PageMappedFtl(tiny_geometry(), overprovision=-0.1)


class TestGarbageCollection:
    def test_victim_is_block_with_fewest_valid_pages(self):
        ftl = PageMappedFtl(tiny_geometry(), overprovision=0.25)
        # Fill enough pages to close several blocks, then overwrite the
        # first few logical pages to create garbage in the oldest blocks.
        for logical in range(ftl.logical_pages):
            ftl.commit_write(logical)
        for logical in range(4):
            ftl.commit_write(logical)
        victim = ftl.pick_victim()
        assert victim is not None
        assert victim.valid_count < ftl.pages_per_block

    def test_relocate_preserves_all_mappings(self):
        ftl = PageMappedFtl(tiny_geometry(), overprovision=0.5)
        for logical in range(ftl.logical_pages):
            ftl.commit_write(logical)
        for logical in range(0, ftl.logical_pages, 2):
            ftl.commit_write(logical)  # create garbage
        before = {l: ftl.lookup(l) for l in range(ftl.logical_pages)}
        assert all(p is not None for p in before.values())
        run_gc_until(ftl, 0.4)
        after = {l: ftl.lookup(l) for l in range(ftl.logical_pages)}
        assert all(p is not None for p in after.values())

    def test_erase_requires_no_valid_pages(self):
        ftl = PageMappedFtl(tiny_geometry(), overprovision=0.25)
        # Two dies round-robin, so filling 2 blocks' worth of pages closes
        # one block on each die.
        for logical in range(2 * ftl.pages_per_block):
            ftl.commit_write(logical)
        full_block = next(b for b in ftl.blocks if b.is_full)
        with pytest.raises(ValueError):
            ftl.erase(full_block)

    def test_write_amplification_accounting(self):
        ftl = PageMappedFtl(tiny_geometry(), overprovision=0.5)
        for logical in range(ftl.logical_pages):
            ftl.commit_write(logical)
        assert ftl.write_amplification() == 1.0
        # Stride 3 so garbage lands *partially* in each block (stride 2
        # would align with the two-die round-robin and leave fully
        # invalid victims that GC reclaims copy-free).
        for logical in range(0, ftl.logical_pages, 3):
            ftl.commit_write(logical)
        run_gc_until(ftl, 0.35)
        assert ftl.write_amplification() > 1.0

    def test_ftl_full_raises_when_gc_absent(self):
        ftl = PageMappedFtl(tiny_geometry(), overprovision=0.25)
        with pytest.raises(FtlFullError):
            # Overwrite endlessly without ever erasing.
            for round_ in range(100):
                for logical in range(ftl.logical_pages):
                    ftl.commit_write(logical)


class TestGcPolicy:
    def test_hysteresis(self):
        policy = GcPolicy(low_watermark=0.05, high_watermark=0.10)
        assert policy.should_start(0.04)
        assert not policy.should_start(0.06)
        assert policy.should_stop(0.10)
        assert not policy.should_stop(0.09)

    def test_invalid_watermarks(self):
        with pytest.raises(ValueError):
            GcPolicy(low_watermark=0.2, high_watermark=0.1)
        with pytest.raises(ValueError):
            GcPolicy(low_watermark=0.0, high_watermark=0.1)


@settings(max_examples=50, deadline=None)
@given(
    writes=st.lists(st.integers(0, 23), min_size=1, max_size=300),
)
def test_mapping_integrity_under_random_overwrites_and_gc(writes):
    """No logical page is ever lost, and validity accounting stays exact."""
    ftl = PageMappedFtl(tiny_geometry(), overprovision=0.25)
    written: set[int] = set()
    for logical in writes:
        if ftl.free_fraction < 0.2:
            run_gc_until(ftl, 0.3)
        ftl.commit_write(logical)
        written.add(logical)
        total_valid = sum(b.valid_count for b in ftl.blocks)
        assert total_valid == ftl.mapped_pages() == len(written)
    for logical in written:
        physical = ftl.lookup(logical)
        block = ftl.blocks[physical // ftl.pages_per_block]
        assert block.slot_to_logical[physical % ftl.pages_per_block] == logical


def reference_victim(ftl: PageMappedFtl, exclude=frozenset()):
    """The O(blocks) greedy scan the victim heap replaced: the oracle."""
    best = None
    for block in ftl.blocks:
        if not block.is_full or block.block_id in ftl.bad_blocks:
            continue
        if block.block_id in exclude:
            continue
        if block.write_slot == block.valid_count and block.valid_count > 0:
            continue
        if best is None or block.valid_count < best.valid_count:
            best = block
            if best.valid_count == 0:
                break
    return best


@settings(max_examples=100, deadline=None)
@given(ops=st.lists(
    st.tuples(st.sampled_from(["write", "trim", "pick", "relocate", "collect"]),
              st.integers(0, 63)),
    min_size=100, max_size=400,
))
def test_victim_heap_matches_scan_under_random_ops(ops):
    """Writes, overwrites, trims and a pipelined GC (several victims in
    flight, picked with ``exclude=``, relocated while other victims wait
    in flight, then erased or retired) never make the heap disagree with
    the scan."""
    ftl = PageMappedFtl(tiny_geometry(), overprovision=0.25,
                        spare_blocks_per_die=1)
    reserve = ftl.geometry.total_dies
    inflight: list = []
    for op, arg in ops:
        if op == "write":
            try:
                ftl.commit_write(arg % ftl.logical_pages, reserve=reserve)
            except FtlFullError:
                pass
        elif op == "trim":
            ftl.trim(arg % ftl.logical_pages)
        elif op == "pick":
            # A block id outside the pipeline in the exclude set is harmless.
            extra = arg % len(ftl.blocks)
            exclude = {v.block_id for v in inflight} | {extra}
            victim = ftl.pick_victim(exclude=exclude)
            assert victim is reference_victim(ftl, exclude)
            if victim is not None:
                inflight.append(victim)
        elif op == "relocate" and inflight:
            victim = inflight[arg % len(inflight)]
            try:
                ftl.relocate_block(victim)
            except FtlFullError:
                pass
        elif op == "collect":
            done = [v for v in inflight if v.valid_count == 0]
            if done:
                victim = done[0]
                inflight.remove(victim)
                if arg % 2:
                    ftl.retire_block(victim)
                else:
                    ftl.erase(victim)
        exclude = {v.block_id for v in inflight}
        assert ftl.pick_victim(exclude=exclude) is reference_victim(ftl, exclude)
        assert ftl.pick_victim() is reference_victim(ftl)
        ftl.check_invariants()


def test_erased_active_block_leaves_its_stream():
    """A user block that fills with garbage can be collected while still
    the die's active block; the stream must not keep writing into it."""
    ftl = PageMappedFtl(tiny_geometry(), overprovision=0.25)
    for _ in range(2 * ftl.pages_per_block):
        ftl.commit_write(0)  # every slot but the last is garbage
    victim = ftl.pick_victim()
    assert victim is not None and victim.valid_count == 0
    ftl.erase(victim)
    ftl.check_invariants()
    physical = ftl.commit_write(1)
    assert ftl.block_of_physical(physical) != victim.block_id
    ftl.check_invariants()


def test_victim_heap_rebuild_keeps_the_scan_order():
    """GC driven by the scan instead of the heap never pops a stale
    entry, so they pile up until the heap rebuilds itself; the rebuilt
    heap still picks what the scan picks."""
    rng = random.Random(7)
    ftl = PageMappedFtl(tiny_geometry(), overprovision=0.5)
    rebuilds = 0
    for step in range(2000):
        while ftl.free_fraction < 0.2:
            victim = reference_victim(ftl)
            ftl.relocate_block(victim)
            ftl.erase(victim)
        before = len(ftl._victims)
        ftl.commit_write(rng.randrange(ftl.logical_pages))
        rebuilds += len(ftl._victims) < before  # commit_write only pushes
        if step % 100 == 0:
            ftl.check_invariants()
    assert rebuilds > 0
    ftl.check_invariants()
    assert ftl.pick_victim() is reference_victim(ftl)


def test_check_invariants_catches_free_block_count_drift():
    ftl = PageMappedFtl(tiny_geometry(), overprovision=0.25)
    ftl.check_invariants()
    ftl.free_block_count -= 1  # bypasses the pools
    with pytest.raises(SimulationError, match="free-block count drift"):
        ftl.check_invariants()


def relocate_page_by_page(ftl: PageMappedFtl, victim: Block) -> list[int]:
    """The per-page relocation ``relocate_block`` replaced: the oracle.

    Each page allocates a GC slot, then leaves the victim through
    ``_invalidate_physical``, which pushes one victim-heap entry per page.
    """
    moved = []
    for slot in range(ftl.pages_per_block):
        logical = victim.slot_to_logical[slot]
        if logical < 0:
            continue
        new_physical = ftl._allocate(ftl._gc_active, logical)
        ftl._invalidate_physical(victim.block_id * ftl.pages_per_block + slot)
        ftl._l2p[logical] = new_physical
        ftl.total_gc_pages_copied += 1
        moved.append(new_physical)
    return moved


def mapping_state(ftl: PageMappedFtl) -> dict:
    """Everything the relocation path may change, except the heap's layout
    (the oracle pushes one entry per moved page)."""
    state = ftl_state(ftl)
    del state["victims"]
    return state


@settings(max_examples=100, deadline=None)
@given(
    channels=st.integers(1, 3),
    dies_per_channel=st.integers(1, 2),
    blocks_per_plane=st.integers(4, 12),
    pages_per_block=st.integers(2, 8),
    overprovision=st.floats(0.1, 0.4),
    utilization=st.floats(0.3, 1.0),
    churn=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**16),
)
def test_relocate_block_matches_page_by_page_oracle(
        channels, dies_per_channel, blocks_per_plane, pages_per_block,
        overprovision, utilization, churn, seed):
    """A precondition-style fill plus random churn with watermark GC,
    driven once through ``relocate_block`` and once through the per-page
    oracle, picks the same victims and leaves the same FTL after each."""
    geometry = tiny_geometry(channels=channels, dies_per_channel=dies_per_channel,
                             blocks_per_plane=blocks_per_plane,
                             pages_per_block=pages_per_block)
    policy = GcPolicy(low_watermark=0.1, high_watermark=0.2)
    fast = PageMappedFtl(geometry, overprovision=overprovision)
    slow = PageMappedFtl(geometry, overprovision=overprovision)
    mapped = int(fast.logical_pages * utilization)
    rng = random.Random(seed)
    writes = list(range(mapped))
    writes += [rng.randrange(mapped) for _ in range(round(mapped * churn))]
    for n, logical in enumerate(writes):
        if n >= mapped and policy.should_start(fast.free_fraction):
            while fast.free_fraction < policy.high_watermark:
                victim = fast.pick_victim()
                oracle_victim = slow.pick_victim()
                if victim is None or oracle_victim is None:
                    assert victim is oracle_victim
                    break
                assert victim.block_id == oracle_victim.block_id
                outcomes = []
                for ftl, relocate, block in ((fast, PageMappedFtl.relocate_block, victim),
                                             (slow, relocate_page_by_page, oracle_victim)):
                    try:
                        outcomes.append(relocate(ftl, block))
                        ftl.erase(block)
                    except FtlFullError:
                        outcomes.append(None)
                    ftl.check_invariants()
                assert outcomes[0] == outcomes[1]
                assert mapping_state(fast) == mapping_state(slow)
                if outcomes[0] is None:
                    return  # both ran out of space at the same page
        for ftl in (fast, slow):
            ftl.commit_write(logical)
    assert mapping_state(fast) == mapping_state(slow)


def test_relocate_block_partial_failure_keeps_moved_pages():
    """An allocation failure partway through a victim leaves the pages
    already moved in their new slots (and counted), the rest mapped in
    the victim, and every invariant intact."""
    ftl = PageMappedFtl(tiny_geometry(channels=1, blocks_per_plane=5),
                        overprovision=0.4)
    assert ftl.logical_pages == 12
    for logical in range(12):
        ftl.commit_write(logical)  # blocks 0-2 full
    for logical in (0, 1):
        ftl.commit_write(logical)  # block 0 keeps two valid pages
    first = ftl.pick_victim()
    assert first.block_id == 0
    ftl.relocate_block(first)  # into GC block 4, which keeps two free slots
    ftl.erase(first)
    for logical in (4, 8, 0):
        ftl.commit_write(logical)  # the last write takes the only free block
    assert ftl.free_block_count == 0
    victim = ftl.pick_victim()
    assert (victim.block_id, victim.valid_count) == (1, 3)
    copied = ftl.total_gc_pages_copied
    with pytest.raises(FtlFullError):
        ftl.relocate_block(victim)
    assert ftl.total_gc_pages_copied == copied + 2
    assert [ftl.block_of_physical(ftl.lookup(l)) for l in (5, 6, 7)] == [4, 4, 1]
    assert victim.slot_to_logical == [-1, -1, -1, 7]
    assert victim.valid_count == 1
    ftl.check_invariants()
    assert ftl.pick_victim() is reference_victim(ftl)


def test_relocated_victim_awaiting_erase_keeps_the_invariants():
    """Between ``relocate_block`` and the erase (the simulated copy and
    erase take time), the victim is an empty collectable block and a
    pipelined pick that excludes it agrees with the scan."""
    ftl = PageMappedFtl(tiny_geometry(), overprovision=0.5)
    for logical in range(ftl.logical_pages):
        ftl.commit_write(logical)
    for logical in range(0, ftl.logical_pages, 3):
        ftl.commit_write(logical)
    victim = ftl.pick_victim()
    assert 0 < victim.valid_count < ftl.pages_per_block
    moved = ftl.relocate_block(victim)
    assert len(moved) == ftl.total_gc_pages_copied
    assert victim.valid_count == 0
    ftl.check_invariants()
    assert ftl.pick_victim() is victim
    exclude = {victim.block_id}
    assert ftl.pick_victim(exclude=exclude) is reference_victim(ftl, exclude)
    ftl.erase(victim)
    ftl.check_invariants()


def test_check_invariants_catches_mapping_drift():
    """Each mapping check of the one-pass walk still fires on its own."""
    def fresh():
        ftl = PageMappedFtl(tiny_geometry(), overprovision=0.25)
        for logical in range(6):
            ftl.commit_write(logical)
        ftl.commit_write(0)
        ftl.check_invariants()
        return ftl

    def drop_valid(ftl):
        ftl.blocks[ftl.lookup(1) // ftl.pages_per_block].valid_count -= 1

    def rewind_write_slot(ftl):
        ftl.blocks[ftl.lookup(1) // ftl.pages_per_block].write_slot = 0

    def remap_logical(ftl):
        ftl._l2p[1] = ftl.lookup(2)

    def map_without_back_map(ftl):
        ftl._l2p[ftl.logical_pages - 1] = 0
        ftl._mapped += 1

    def count_drift(ftl):
        ftl._mapped += 1

    for mutate, message in ((drop_valid, "valid_count drift"),
                            (rewind_write_slot, "mapped slot beyond the write slot"),
                            (remap_logical, "back-map entry missing from L2P"),
                            (map_without_back_map, "L2P and back-map disagree"),
                            (count_drift, "mapped-page counter drift")):
        ftl = fresh()
        mutate(ftl)
        with pytest.raises(SimulationError, match=message):
            ftl.check_invariants()


# -- the bulk precondition ---------------------------------------------------

def churn_page_by_page(ftl: PageMappedFtl, writes, policy: GcPolicy) -> None:
    """``commit_write`` of each logical page, with synchronous watermark
    GC before every write that finds ``policy.should_start``."""
    for logical in writes:
        if policy.should_start(ftl.free_fraction):
            while ftl.free_fraction < policy.high_watermark:
                victim = ftl.pick_victim()
                if victim is None:
                    break
                ftl.relocate_block(victim)
                ftl.erase(victim)
        ftl.commit_write(int(logical))


def precondition_page_by_page(ftl: PageMappedFtl, utilization: float, churn: float,
                              seed: int, policy: GcPolicy) -> None:
    """The per-page precondition ``PageMappedFtl.precondition`` replaced:
    the oracle. A sequential fill, then random overwrites with
    synchronous watermark GC; the write counters end at 0."""
    mapped = int(ftl.logical_pages * utilization)
    for logical in range(mapped):
        ftl.commit_write(logical)
    if churn > 0 and mapped > 0:
        rng = np.random.default_rng(seed)
        churn_page_by_page(ftl, rng.integers(0, mapped, round(mapped * churn)), policy)
    ftl.total_user_pages_written = 0
    ftl.total_gc_pages_copied = 0


def end_state(ftl: PageMappedFtl) -> dict:
    """Everything a preconditioned FTL carries into a measured run, with
    the victim heap as its collectable set (the two builds push different
    heap entries, and only the set decides a pick)."""
    state = ftl_state(ftl)
    del state["victims"]
    state["collectable"] = sorted(ftl._collectable_entries())
    return state


@settings(max_examples=300, deadline=None)
@given(
    channels=st.integers(1, 3),
    dies_per_channel=st.integers(1, 2),
    blocks_per_plane=st.integers(2, 10),
    pages_per_block=st.sampled_from([1, 2, 3, 4, 8]),
    overprovision=st.floats(0.05, 0.5),
    spares=st.integers(0, 1),
    low=st.floats(0.02, 0.4),
    gap=st.floats(0.01, 0.3),
    utilization=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    churn=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    seed=st.integers(0, 2**16),
)
def test_precondition_matches_page_by_page_oracle(
        channels, dies_per_channel, blocks_per_plane, pages_per_block, overprovision,
        spares, low, gap, utilization, churn, seed):
    """The bulk build leaves the FTL the per-page precondition leaves, and
    raises ``FtlFullError`` in exactly the same cases (leaving its FTL
    pristine)."""
    geometry = tiny_geometry(channels=channels, dies_per_channel=dies_per_channel,
                             blocks_per_plane=blocks_per_plane,
                             pages_per_block=pages_per_block)
    policy = GcPolicy(low_watermark=low, high_watermark=low + gap)
    bulk, oracle = (PageMappedFtl(geometry, overprovision, spare_blocks_per_die=spares)
                    for _ in range(2))
    pristine = end_state(bulk)
    outcomes = []
    for run in (lambda: bulk.precondition(utilization, churn, seed, policy),
                lambda: precondition_page_by_page(oracle, utilization, churn, seed, policy)):
        try:
            run()
            outcomes.append("built")
        except FtlFullError:
            outcomes.append("full")
    assert outcomes[0] == outcomes[1]
    if outcomes[0] == "full":
        assert end_state(bulk) == pristine
        return
    bulk.check_invariants()
    assert end_state(bulk) == end_state(oracle)


def dealer_state(ftl: PageMappedFtl) -> dict:
    """What an allocation moves: streams, pools, cursor, write slots."""
    state = end_state(ftl)
    for key in ("l2p", "mapped", "back_maps", "collectable", "counters"):
        del state[key]
    state["write_slots"] = [block.write_slot for block in ftl.blocks]
    return state


def deal_both(geometry: FlashGeometry, n: int, prepare=None, stream=_USER):
    """Deal ``n`` pages in bulk and by ``n`` calls of ``_allocate`` on two
    equal FTLs (``prepare`` shapes both first); returns both FTLs and both
    page lists, with the bulk state written back."""
    bulk, oracle = (PageMappedFtl(geometry, overprovision=0.25) for _ in range(2))
    if prepare is not None:
        prepare(bulk)
        prepare(oracle)
    build = _SteadyStateBuild(bulk)
    dealt = build.deal(stream, n).tolist()
    build.write_to(bulk, 0)
    actives = oracle._user_active if stream == _USER else oracle._gc_active
    allocated = [oracle._allocate(actives, logical) for logical in range(n)]
    return bulk, oracle, dealt, allocated


def shrink_pools(*sizes):
    """A ``prepare`` that leaves die ``d`` ``sizes[d]`` free blocks."""
    def prepare(ftl):
        for pool, size in zip(ftl._free, sizes):
            while len(pool) > size:
                pool.pop()
                ftl.free_block_count -= 1
    return prepare


def test_deal_drops_an_exhausted_die_before_the_partial_round():
    """Die 0 runs out exactly at the end of the first segment (two whole
    rounds); the seventh page must skip it, not take from its empty pool."""
    geometry = tiny_geometry(channels=3, pages_per_block=2)
    bulk, oracle, dealt, allocated = deal_both(geometry, 7, shrink_pools(1, 2, 2))
    assert [bulk.die_of_physical(p) for p in dealt] == [0, 1, 2, 0, 1, 2, 1]
    assert dealt == allocated
    assert dealer_state(bulk) == dealer_state(oracle)
    assert bulk._die_cursor == 2


def test_deal_raises_when_every_die_runs_dry():
    geometry = tiny_geometry(channels=3, pages_per_block=2)
    prepare = shrink_pools(1, 2, 1)
    deal_both(geometry, 8, prepare)  # exactly the room there is
    with pytest.raises(FtlFullError):
        deal_both(geometry, 9, prepare)
    oracle = PageMappedFtl(geometry, overprovision=0.25)
    prepare(oracle)
    for logical in range(8):
        oracle._allocate(oracle._user_active, logical)
    with pytest.raises(FtlFullError):
        oracle._allocate(oracle._user_active, 8)


@pytest.mark.parametrize("stream", [_USER, _GC])
def test_deal_keeps_an_exactly_full_active_block(stream):
    """A block is taken only for a page: after two blocks' worth of pages
    on two dies each die's active block is full and still active."""
    geometry = tiny_geometry()
    bulk, oracle, dealt, allocated = deal_both(geometry, 2 * 4, stream=stream)
    assert dealt == allocated
    actives = bulk._user_active if stream == _USER else bulk._gc_active
    assert all(block is not None and block.is_full for block in actives)
    assert bulk.free_block_count == geometry.total_blocks - 2
    assert dealer_state(bulk) == dealer_state(oracle)


def churn_both(bulk: PageMappedFtl, oracle: PageMappedFtl, mapped: int, writes,
               policy: GcPolicy) -> None:
    """Fill ``0 .. mapped-1`` then overwrite ``writes`` with watermark GC,
    in bulk on ``bulk`` and page by page on ``oracle``."""
    build = _SteadyStateBuild(bulk)
    build.fill(mapped)
    build.churn(np.array(writes), policy)
    build.write_to(bulk, mapped)
    for logical in range(mapped):
        oracle.commit_write(logical)
    churn_page_by_page(oracle, writes, policy)
    oracle.total_user_pages_written = oracle.total_gc_pages_copied = 0
    bulk.check_invariants()


def test_churn_batch_overwrites_a_logical_twice():
    """The second write of logical 3 in one batch invalidates the page the
    first one got, not the fill's page twice."""
    geometry = tiny_geometry(blocks_per_plane=16)
    policy = GcPolicy(low_watermark=0.01, high_watermark=0.02)  # never triggers
    bulk, oracle = (PageMappedFtl(geometry, overprovision=0.25) for _ in range(2))
    churn_both(bulk, oracle, 8, [3, 5, 3, 3, 0], policy)
    assert end_state(bulk) == end_state(oracle)
    assert sum(block.valid_count for block in bulk.blocks) == 8


@pytest.mark.parametrize("channels, mapped, writes, stream", [
    (1, 4, [1, 1, 2], "_user_active"),
    (2, 9, [1, 5, 7, 5], "_gc_active"),
])
def test_gc_erases_a_victim_that_is_still_an_active_block(channels, mapped, writes, stream):
    """GC erases a full block that is still its stream's active block (a
    GC block keeps that role only if relocation took no new block on its
    die); both builds detach it."""
    geometry = tiny_geometry(channels=channels, blocks_per_plane=4, pages_per_block=2)
    policy = GcPolicy(low_watermark=0.3, high_watermark=0.5)
    bulk, oracle = (PageMappedFtl(geometry, overprovision=0.25) for _ in range(2))
    erased_active = []
    erase = oracle.erase

    def erase_and_record(victim):
        erased_active.append(victim is getattr(oracle, stream)[victim.die])
        erase(victim)

    oracle.erase = erase_and_record
    churn_both(bulk, oracle, mapped, writes, policy)
    assert any(erased_active)
    assert end_state(bulk) == end_state(oracle)


#: sha256 of ``end_state`` (as JSON) after ``precondition(0.92, 1.0, 0x5EED)``
#: on ``conv_experiment_profile()``, recorded from the per-page
#: precondition (``precondition_page_by_page``) before the bulk build.
EXPERIMENT_STEADY_STATE_SHA256 = (
    "d51ff6bb528ef1bbf23528e1ae8c90947dd990f6d72b093057891f854bb193db")


def test_experiment_steady_state_digest():
    """Cross-commit oracle for the FTL state itself: the experiment
    geometry's steady state hashes to the per-page build's digest."""
    conv_device._preconditioned.clear()
    try:
        device = ConvDevice(Simulator(), conv_experiment_profile())
        device.precondition(0.92, steady_state_churn=1.0, seed=0x5EED)
    finally:
        conv_device._preconditioned.clear()
    digest = hashlib.sha256(json.dumps(end_state(device.ftl)).encode()).hexdigest()
    assert digest == EXPERIMENT_STEADY_STATE_SHA256
