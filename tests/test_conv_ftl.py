"""Unit + property tests for the page-mapped FTL and GC policy."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conv import FtlFullError, GcPolicy, PageMappedFtl
from repro.flash import KIB, FlashGeometry
from repro.sim import SimulationError


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
        for slot in range(ftl.pages_per_block):
            ftl.relocate(victim, slot)
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
    flight, picked with ``exclude=``, relocated a page at a time, then
    erased or retired) never make the heap disagree with the scan."""
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
            slot = next((s for s, logical in enumerate(victim.slot_to_logical)
                         if logical >= 0), None)
            if slot is not None:
                try:
                    assert ftl.relocate(victim, slot) is not None
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
            for slot in range(ftl.pages_per_block):
                ftl.relocate(victim, slot)
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
