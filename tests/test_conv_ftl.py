"""Unit + property tests for the page-mapped FTL and GC policy."""

import hashlib
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conv import ConvDevice, FtlFullError, GcPolicy, PageMappedFtl
from repro.conv import device as conv_device
from repro.conv import ftl as conv_ftl
from repro.conv.ftl import _GC, _USER, Block, _SteadyStateBuild
from repro.core.experiments.io_interference import conv_experiment_profile
from repro.flash import KIB, FlashGeometry
from repro.sim import SimulationError, Simulator

from .test_conv_device import block_slots, ftl_state, write_amplification


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
        assert block_slots(ftl, old_block)[first % ftl.pages_per_block] == -1

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
        full_block = next(b for b in ftl.blocks if b.write_slot == ftl.pages_per_block)
        with pytest.raises(ValueError):
            ftl.erase(full_block)

    def test_write_amplification_accounting(self):
        ftl = PageMappedFtl(tiny_geometry(), overprovision=0.5)
        for logical in range(ftl.logical_pages):
            ftl.commit_write(logical)
        assert write_amplification(ftl) == 1.0
        # Stride 3 so garbage lands *partially* in each block (stride 2
        # would align with the two-die round-robin and leave fully
        # invalid victims that GC reclaims copy-free).
        for logical in range(0, ftl.logical_pages, 3):
            ftl.commit_write(logical)
        run_gc_until(ftl, 0.35)
        assert write_amplification(ftl) > 1.0

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
        assert block_slots(ftl, block)[physical % ftl.pages_per_block] == logical


def reference_victim(ftl: PageMappedFtl, exclude=frozenset()):
    """The greedy scan written out block by block, independent of
    ``_collectable_entries``: the oracle for ``pick_victim``."""
    best = None
    for block in ftl.blocks:
        if block.write_slot != ftl.pages_per_block or block.block_id in ftl.bad_blocks:
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
def test_pick_victim_matches_scan_under_random_ops(ops):
    """Writes, overwrites, trims and a pipelined GC (several victims in
    flight, picked with ``exclude=``, relocated while other victims wait
    in flight, then erased or retired) never make ``pick_victim``
    disagree with the scan."""
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
    assert physical // ftl.pages_per_block != victim.block_id
    ftl.check_invariants()


def test_check_invariants_catches_free_block_count_drift():
    ftl = PageMappedFtl(tiny_geometry(), overprovision=0.25)
    ftl.check_invariants()
    ftl.free_block_count -= 1  # bypasses the pools
    with pytest.raises(SimulationError, match="free-block count drift"):
        ftl.check_invariants()


def relocate_page_by_page(ftl: PageMappedFtl, victim: Block) -> list[int]:
    """The per-page relocation ``relocate_block`` replaced: the oracle.

    Each page allocates a GC slot, then leaves the victim through
    ``_invalidate_physical``.
    """
    moved = []
    for slot, logical in enumerate(block_slots(ftl, victim)):
        if logical < 0:
            continue
        new_physical = ftl._allocate(ftl._gc_active, logical)
        ftl._invalidate_physical(victim.block_id * ftl.pages_per_block + slot)
        ftl._l2p[logical] = new_physical
        ftl.total_gc_pages_copied += 1
        moved.append(new_physical)
    return moved


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
                assert ftl_state(fast) == ftl_state(slow)
                if outcomes[0] is None:
                    return  # both ran out of space at the same page
        for ftl in (fast, slow):
            ftl.commit_write(logical)
    assert ftl_state(fast) == ftl_state(slow)


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
    assert [ftl.lookup(l) // ftl.pages_per_block for l in (5, 6, 7)] == [4, 4, 1]
    assert block_slots(ftl, victim) == [-1, -1, -1, 7]
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


@pytest.mark.parametrize("corrupt", ["l2p", "back"])
@pytest.mark.parametrize("value", ["below", "above"])
def test_check_invariants_rejects_map_entries_out_of_range(corrupt, value):
    """Only ``-1`` marks an unmapped entry: an entry below it, or one
    naming a page past the end of the other map, is corruption even in an
    unmapped L2P entry or an unwritten slot, where the other checks would
    read it as unmapped."""
    ftl = PageMappedFtl(tiny_geometry(), overprovision=0.25)
    ftl.commit_write(0)
    ftl.check_invariants()
    entries, bound = ((ftl._l2p, ftl.geometry.total_pages) if corrupt == "l2p"
                      else (ftl._back, ftl.logical_pages))
    entries[-1] = -2 if value == "below" else bound
    name = "L2P" if corrupt == "l2p" else "back-map"
    with pytest.raises(SimulationError, match=f"{name} entry out of range"):
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
    the collectable set ``pick_victim`` chooses from."""
    state = ftl_state(ftl)
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
    assert all(block is not None and block.write_slot == geometry.pages_per_block
               for block in actives)
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


def test_gc_block_filled_with_garbage_joins_the_episode():
    """One die of five 2-page blocks. The first GC episode relocates one
    page into a fresh GC-stream block, and the next overwrite makes that
    page garbage. The second episode's first relocation fills the block,
    which now holds one valid page, so it is that episode's next victim:
    the bulk build must add it to the episode's victim order."""
    geometry = tiny_geometry(channels=1, blocks_per_plane=5, pages_per_block=2)
    policy = GcPolicy(low_watermark=0.3, high_watermark=0.5)
    bulk, oracle = (PageMappedFtl(geometry, overprovision=0.25) for _ in range(2))
    erased = []
    erase = oracle.erase

    def erase_and_record(victim):
        erased.append((victim.block_id, oracle._gc_active[victim.die].block_id))
        erase(victim)

    oracle.erase = erase_and_record
    churn_both(bulk, oracle, 7, [5, 4, 2, 0], policy)
    # (victim, GC-stream block at its erase): block 4 takes block 2's page,
    # then block 1's, then is collected itself.
    assert erased == [(2, 4), (1, 4), (4, 1)]
    assert end_state(bulk) == end_state(oracle)


# -- runs of GC victims in the bulk build -------------------------------------

def record_runs(monkeypatch) -> list[dict]:
    """Spy on the bulk build's GC, one dict per run of victims relocated
    with one deal: free blocks before (``free``) and after
    (``free_after``), victims offered and taken, the victims it would take
    if no partly written GC-stream block filled (``without_fill``),
    whether some die had no room for GC pages when it began
    (``dry_die``), per stream whether a victim taken was that stream's
    active block (``active``), and the collectable blocks left."""
    runs = []
    run_length = _SteadyStateBuild.run_length
    relocate = _SteadyStateBuild.relocate

    def spy_run_length(self, run, writing):
        taken = run_length(self, run, writing)
        pages_per_block = self.pages_per_block
        room = pages_per_block - self.slot[_GC] + pages_per_block * self.count
        victims = run[:taken] % len(self.valid)
        runs.append(dict(
            free=self.free, offered=len(run), taken=taken,
            without_fill=run_length(self, run, []), dry_die=bool((room == 0).any()),
            active=[bool(np.isin(victims, self.active[stream]).any())
                    for stream in (_USER, _GC)]))
        return taken

    def spy_relocate(self, victims):
        relocate(self, victims)
        runs[-1]["free_after"] = self.free
        runs[-1]["left"] = int(np.count_nonzero(self.full & (self.valid < self.pages_per_block)))

    monkeypatch.setattr(_SteadyStateBuild, "run_length", spy_run_length)
    monkeypatch.setattr(_SteadyStateBuild, "relocate", spy_relocate)
    return runs


def precondition_both(oracle: PageMappedFtl, bulk: PageMappedFtl, utilization: float,
                      churn: float, seed: int, policy: GcPolicy) -> None:
    """Precondition ``bulk`` and, page by page, ``oracle``, and assert
    that they end equal."""
    bulk.precondition(utilization, churn, seed, policy)
    precondition_page_by_page(oracle, utilization, churn, seed, policy)
    bulk.check_invariants()
    assert end_state(bulk) == end_state(oracle)


@pytest.mark.parametrize("chunk", [1, 3, 7])
@pytest.mark.parametrize("channels, blocks_per_plane, pages_per_block, utilization, churn", [
    (1, 6, 4, 1.0, 0.0),
    (2, 6, 3, 0.8, 1.5),
    (3, 5, 2, 0.7, 2.0),
])
def test_precondition_fill_in_chunks_matches_page_by_page_oracle(
        monkeypatch, chunk, channels, blocks_per_plane, pages_per_block, utilization,
        churn):
    """The fill deals ``_FILL_CHUNK`` pages at a time. With chunks of a
    few pages, the boundaries fall mid-round and mid-block, which the
    oracle's tiny geometries never reach at the real chunk size."""
    monkeypatch.setattr(conv_ftl, "_FILL_CHUNK", chunk)
    geometry = tiny_geometry(channels=channels, blocks_per_plane=blocks_per_plane,
                             pages_per_block=pages_per_block)
    bulk, oracle = (PageMappedFtl(geometry, overprovision=0.2) for _ in range(2))
    assert int(bulk.logical_pages * utilization) > 2 * chunk
    precondition_both(oracle, bulk, utilization, churn, 11,
                      GcPolicy(low_watermark=0.1, high_watermark=0.3))


def test_gc_run_stops_at_the_watermark(monkeypatch):
    """A run is at most ``stop - free`` victims long, so GC stops where
    the per-victim loop does, with victims left that a longer run would
    have collected past the watermark."""
    geometry = tiny_geometry(channels=3, blocks_per_plane=2, pages_per_block=1)
    policy = GcPolicy(low_watermark=0.04, high_watermark=0.18)
    n_blocks = geometry.total_blocks
    stop = next(free for free in range(n_blocks + 1) if policy.should_stop(free / n_blocks))
    runs = record_runs(monkeypatch)
    precondition_both(*(PageMappedFtl(geometry, 0.09) for _ in range(2)),
                      0.58, 2.8, 965, policy)
    assert any(run["offered"] == run["taken"] == stop - run["free"] >= 2
               and run["free_after"] == stop and run["left"] for run in runs)


@pytest.mark.parametrize("channels, blocks_per_plane, pages_per_block, overprovision, "
                         "low, high, utilization, churn, seed, dry_die", [
                             (1, 3, 2, 0.11, 0.25, 0.43, 0.59, 1.8, 962, True),
                             (1, 5, 3, 0.22, 0.32, 0.6, 0.96, 1.3, 877, False),
                         ], ids=["dry-at-start", "runs-dry"])
def test_gc_run_ends_where_a_die_runs_out_of_room(
        monkeypatch, channels, blocks_per_plane, pages_per_block, overprovision,
        low, high, utilization, churn, seed, dry_die):
    """A run ends at the victim after which a die that an earlier victim
    of the run freed a block on would get pages: one victim at a time,
    that die has room again. Either the die had no room for GC pages
    when the run began, or it runs dry inside the run's pages, where the
    per-victim loop takes a block erased earlier in the same episode."""
    geometry = tiny_geometry(channels=channels, blocks_per_plane=blocks_per_plane,
                             pages_per_block=pages_per_block)
    oracle, bulk = (PageMappedFtl(geometry, overprovision) for _ in range(2))
    log = []
    erase, take, commit = oracle.erase, oracle._take_free_block, oracle.commit_write

    def erase_and_log(victim):
        log.append(("erase", victim.block_id))
        erase(victim)

    def take_and_log(die):
        block = take(die)
        log.append(("take", block and block.block_id))
        return block

    def commit_and_log(*args):
        log.append(("write", None))
        return commit(*args)

    oracle.erase, oracle._take_free_block = erase_and_log, take_and_log
    oracle.commit_write = commit_and_log
    runs = record_runs(monkeypatch)
    precondition_both(oracle, bulk, utilization, churn, seed, GcPolicy(low, high))
    assert any(run["without_fill"] == run["taken"] < run["offered"]
               and run["dry_die"] == dry_die for run in runs)
    if not dry_die:
        erased = set()  # blocks erased by the GC episode under way
        taken_back = False
        for op, block_id in log:
            if op == "write":
                erased = set()
            elif op == "erase":
                erased.add(block_id)
            else:
                taken_back |= block_id in erased
        assert taken_back


def test_gc_run_ends_where_a_gc_block_fills_with_garbage(monkeypatch):
    """A partly written GC-stream block with garbage in it fills inside
    the run's pages, with a key below the next victims': the run ends at
    the victim whose pages fill it, and it joins the victim order."""
    geometry = tiny_geometry(channels=3, blocks_per_plane=3, pages_per_block=2)
    runs = record_runs(monkeypatch)
    precondition_both(*(PageMappedFtl(geometry, 0.18) for _ in range(2)),
                      0.62, 2.0, 631, GcPolicy(low_watermark=0.06, high_watermark=0.35))
    assert any(run["without_fill"] > run["taken"] for run in runs)


@pytest.mark.parametrize("stream, channels, blocks_per_plane, pages_per_block, overprovision, "
                         "low, high, utilization, churn, seed", [
                             (_USER, 3, 3, 1, 0.24, 0.29, 0.54, 0.88, 1.4, 919),
                             (_GC, 2, 3, 2, 0.25, 0.14, 0.32, 0.68, 2.4, 750),
                         ], ids=["user", "gc"])
def test_gc_run_takes_an_exactly_full_active_block(
        monkeypatch, stream, channels, blocks_per_plane, pages_per_block, overprovision,
        low, high, utilization, churn, seed):
    """A run of several victims holds one that is still its stream's
    active block, exactly full: it is detached when it is erased, after
    the run's deal, as the per-victim loop detaches it before the next
    victim's pages (a full and a missing active block both take a pooled
    block for the next page)."""
    geometry = tiny_geometry(channels=channels, blocks_per_plane=blocks_per_plane,
                             pages_per_block=pages_per_block)
    runs = record_runs(monkeypatch)
    precondition_both(*(PageMappedFtl(geometry, overprovision) for _ in range(2)),
                      utilization, churn, seed, GcPolicy(low, high))
    assert any(run["taken"] >= 2 and run["active"][stream] for run in runs)


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


#: sha256 of ``end_state`` (as JSON) after ``precondition(0.92, 1.5,
#: 0x5EED)`` on an FTL of ``conv_experiment_profile()``, by spare blocks
#: per die: the state fig6, fig6rates and obs11 start from (with 2 spares
#: when erase faults are on), recorded from the build that dealt one GC
#: victim at a time, which matched the per-page build.
CHURN_15_STEADY_STATE_SHA256 = {
    0: "10ed1750dc04de82726603e5e8a73e26954b19cc06880d1df51b95db6c6caf6a",
    2: "802c39a2547ef78480a00faca1ddca5412d33e0f70abf64f35f79f7e241fd1d3",
}


def experiment_ftl(churn: float, spares: int = 0) -> PageMappedFtl:
    """The experiment geometry's FTL, preconditioned at 0.92 with seed
    0x5EED and the profile's GC watermarks."""
    profile = conv_experiment_profile()
    ftl = PageMappedFtl(profile.geometry, profile.overprovision, spare_blocks_per_die=spares)
    ftl.precondition(0.92, churn, 0x5EED,
                     GcPolicy(profile.gc_low_watermark, profile.gc_high_watermark))
    return ftl


@pytest.mark.parametrize("spares", sorted(CHURN_15_STEADY_STATE_SHA256))
def test_churn_15_steady_state_digest(spares):
    ftl = experiment_ftl(1.5, spares)
    digest = hashlib.sha256(json.dumps(end_state(ftl)).encode()).hexdigest()
    assert digest == CHURN_15_STEADY_STATE_SHA256[spares]


def test_precondition_peak_memory_is_bounded():
    """The experiment geometry's churn-1.0 precondition, memo store
    included, peaks at about 22 MiB of traced allocations; with the maps
    held as Python lists it peaked at about 63 MiB."""
    conv_device._preconditioned.clear()
    device = ConvDevice(Simulator(), conv_experiment_profile())
    tracemalloc.start()
    try:
        device.precondition(0.92, steady_state_churn=1.0, seed=0x5EED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        conv_device._preconditioned.clear()
    assert peak <= 32 * 2**20


def test_experiment_build_deals_whole_runs_of_victims(monkeypatch):
    """The churn-1.0 build relocates its 12,642 GC victims in runs: at
    most 1,300 deals in all (one per victim made 12,659)."""
    deals = []
    deal = _SteadyStateBuild.deal

    def counted(self, *args):
        deals.append(args)
        return deal(self, *args)

    monkeypatch.setattr(_SteadyStateBuild, "deal", counted)
    experiment_ftl(1.0)
    assert len(deals) <= 1300
