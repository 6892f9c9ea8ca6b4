"""Property-based tests (hypothesis) for core invariants across modules."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conv.device import PRIO_GC_URGENT
from repro.device.core import PRIO_IO, PRIO_MGMT, PRIO_PANIC
from repro.flash import KIB, FlashGeometry
from repro.hostif import Opcode
from repro.sim import Container, Resource, SimulationError, Simulator, us
from repro.workload import LatencyStats, RatePacer, TimeSeries
from repro.zns import ZoneStriping
from repro.zns.profiles import zn540


# --------------------------------------------------------------------- engine

@settings(max_examples=60, deadline=None)
@given(delays=st.lists(st.integers(0, 10_000), min_size=1, max_size=50))
def test_engine_fires_events_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.timeout(delay).add_callback(lambda _: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert sim.now == max(delays)


@settings(max_examples=50, deadline=None)
@given(
    puts=st.lists(st.integers(1, 40), min_size=1, max_size=30),
)
def test_container_conserves_quantity(puts):
    """Everything put in can be taken out, and levels never go negative."""
    sim = Simulator()
    tank = Container(sim, capacity=100)
    total = sum(puts)
    taken = [0]

    def producer():
        for amount in puts:
            yield tank.put(amount)

    def consumer():
        while taken[0] < total:
            amount = min(17, total - taken[0])
            yield tank.get(amount)
            assert tank.level >= 0
            taken[0] += amount

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert taken[0] == total
    assert tank.level == 0


# ------------------------------------------------------------------- resources

class _HeapResource:
    """Reference model: grants in ``(priority, arrival)`` heap order."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.users = set()
        self.queue = []
        self.arrivals = 0

    def request(self, rid, priority):
        self.arrivals += 1
        heapq.heappush(self.queue, (priority, self.arrivals, rid))
        return self._grant()

    def release(self, rid):
        self.users.remove(rid)
        return self._grant()

    def _grant(self):
        granted = []
        while self.queue and len(self.users) < self.capacity:
            rid = heapq.heappop(self.queue)[2]
            self.users.add(rid)
            granted.append(rid)
        return granted


_PRIORITIES = (PRIO_PANIC, PRIO_GC_URGENT, PRIO_IO, PRIO_MGMT)


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(1, 3),
    ops=st.lists(
        # Requests outnumber releases so that queues build up.
        st.tuples(st.sampled_from(("request", "request", "release",
                                   "release-queued")),
                  st.integers(0, 3), st.integers(0, 1_000)),
        max_size=60,
    ),
)
def test_resource_grants_in_priority_heap_order(capacity, ops):
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    model = _HeapResource(capacity)
    events = []
    granted, waiting = [], []
    for op, level, pick in ops:
        if op == "request":
            rid = len(events)
            events.append(res.request(priority=_PRIORITIES[level]))
            expected = model.request(rid, _PRIORITIES[level])
            waiting.append(rid)
        elif op == "release" and granted:
            rid = granted.pop(pick % len(granted))
            res.release(events[rid])
            expected = model.release(rid)
            with pytest.raises(SimulationError):
                res.release(events[rid])  # a released request holds no slot
        elif op == "release-queued" and waiting:
            rid = waiting[pick % len(waiting)]
            with pytest.raises(SimulationError):
                res.release(events[rid])  # a queued request holds no slot
            expected = []
        else:
            continue
        newly = [rid for rid in waiting if events[rid].triggered]
        assert newly == expected
        for rid in newly:
            waiting.remove(rid)
            granted.append(rid)
        assert res.in_use == len(model.users)
        assert res.queue_length == len(model.queue)
    sim.run()


# -------------------------------------------------------------------- striping

@settings(max_examples=100, deadline=None)
@given(
    zone_index=st.integers(0, 903),
    offset_pages=st.integers(0, 1000),
    nbytes=st.integers(1, 512 * 1024),
)
def test_striping_span_covers_exactly_the_request(zone_index, offset_pages, nbytes):
    geometry = FlashGeometry()
    striping = ZoneStriping(geometry, zone_size_bytes=2048 * 1024 * 1024)
    offset = offset_pages * geometry.page_size
    spans = striping.dies_for_span(zone_index, offset, nbytes)
    assert sum(take for _, take in spans) == nbytes
    assert all(0 <= die < geometry.total_dies for die, _ in spans)
    # No span crosses a page boundary.
    assert all(take <= geometry.page_size for _, take in spans)
    # One span per page, in page order, each served by that page's die.
    assert [die for die, _ in spans] == [
        striping.die_for_page(zone_index, offset_pages + i)
        for i in range(len(spans))
    ]


@settings(max_examples=60, deadline=None)
@given(
    zone_index=st.integers(0, 903),
    zone_page=st.integers(0, 10_000),
    stripe_width=st.sampled_from([8, 16]),
)
def test_zone_table_matches_die_for_page(zone_index, zone_page, stripe_width):
    striping = ZoneStriping(FlashGeometry(), zone_size_bytes=2048 * 1024 * 1024,
                            stripe_width=stripe_width)
    table = striping.zone_table(zone_index)
    assert len(table) == stripe_width
    assert (table[zone_page % stripe_width]
            == striping.die_for_page(zone_index, zone_page))


@settings(max_examples=30, deadline=None)
@given(zone_index=st.integers(0, 100))
def test_striping_distributes_pages_evenly(zone_index):
    geometry = FlashGeometry()
    striping = ZoneStriping(geometry, zone_size_bytes=2048 * 1024 * 1024)
    pages = 4 * geometry.total_dies
    counts = np.zeros(geometry.total_dies, dtype=int)
    for page in range(pages):
        counts[striping.die_for_page(zone_index, page)] += 1
    assert (counts == 4).all()


# ----------------------------------------------------------------------- stats

@settings(max_examples=60, deadline=None)
@given(samples=st.lists(st.integers(0, 10**9), min_size=1, max_size=300),
       p=st.floats(0, 100))
def test_latency_percentile_matches_numpy(samples, p):
    stats = LatencyStats()
    for s in samples:
        stats.record(s)
    assert stats.percentile_ns(p) == pytest.approx(np.percentile(samples, p))
    assert stats.mean_ns == pytest.approx(np.mean(samples))


@settings(max_examples=50, deadline=None)
@given(
    events=st.lists(
        st.tuples(st.integers(0, 10**9), st.integers(1, 10**6)),
        min_size=1, max_size=200,
    ),
    interval_ms=st.integers(1, 500),
)
def test_timeseries_conserves_bytes(events, interval_ms):
    ts = TimeSeries(interval_ns=interval_ms * 1_000_000)
    total = 0
    for when, nbytes in events:
        ts.record(when, nbytes)
        total += nbytes
    series = ts.bandwidth_series()
    # sum(MiB/s * interval_seconds) == total MiB
    reconstructed = sum(v * interval_ms / 1000 for _, v in series)
    assert reconstructed == pytest.approx(total / (1024 * 1024), rel=1e-9)


# ------------------------------------------------------------------ rate pacer

@settings(max_examples=50, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 10**6), min_size=1, max_size=100),
    rate=st.integers(10**5, 10**9),
)
def test_pacer_reservations_never_exceed_rate(sizes, rate):
    sim = Simulator()
    pacer = RatePacer(sim, rate_bps=rate)
    start = sim.now
    total = 0
    horizon = start
    for nbytes in sizes:
        delay = pacer.delay_for(nbytes)
        assert delay >= 0
        total += nbytes
        horizon = max(horizon, start + delay)
    # The reservation horizon admits at most rate x elapsed bytes.
    # Each reservation rounds to the nearest nanosecond — unbiased, but
    # it can under-charge by up to 0.5 ns per request, so the bound
    # carries that slack (negligible at real block sizes, visible to
    # hypothesis at 1-byte requests against sub-ns byte costs).
    elapsed_s = (pacer._next_free_ns - start) / 1e9
    slack_s = 0.5e-9 * len(sizes)
    assert total <= rate * (elapsed_s + slack_s) * (1 + 1e-6) + 1


# --------------------------------------------------------------------- profile

@settings(max_examples=60, deadline=None)
@given(
    nlb_a=st.integers(1, 64),
    nlb_b=st.integers(1, 64),
    opcode=st.sampled_from([Opcode.READ, Opcode.WRITE, Opcode.APPEND]),
)
def test_cmd_service_monotone_in_lba_count(nlb_a, nlb_b, opcode):
    profile = zn540()
    lo, hi = sorted((nlb_a, nlb_b))
    # Compare at equal request-size tier so only the per-LBA term varies.
    service_lo = profile.cmd_service_ns(opcode, 8 * KIB, lo, 4096)
    service_hi = profile.cmd_service_ns(opcode, 8 * KIB, hi, 4096)
    assert service_lo <= service_hi


@settings(max_examples=60, deadline=None)
@given(
    occ_a=st.integers(0, 275_712),
    occ_b=st.integers(0, 275_712),
)
def test_reset_work_monotone_in_occupancy(occ_a, occ_b):
    profile = zn540()
    lo, hi = sorted((occ_a, occ_b))
    assert profile.reset_work_ns(lo, 0, 4096) <= profile.reset_work_ns(hi, 0, 4096)


@settings(max_examples=60, deadline=None)
@given(remaining=st.integers(0, 1077 * 1024 * 1024))
def test_finish_work_bounds(remaining):
    profile = zn540()
    work = profile.finish_work_ns(remaining)
    assert work >= profile.finish_floor_ns
    # Never worse than padding the whole capacity plus the floor.
    assert work <= profile.finish_work_ns(profile.zone_cap_bytes)


# ------------------------------------------------------------------- scheduler

@settings(max_examples=40, deadline=None)
@given(
    chunks=st.lists(st.integers(1, 8), min_size=1, max_size=40),
)
def test_mq_deadline_merging_preserves_lba_coverage(chunks):
    """Merged dispatches cover exactly the submitted LBAs, in order."""
    from repro.stacks import IoUringStack
    from .util import make_device, write

    sim, dev = make_device()
    stack = IoUringStack(dev, scheduler="mq-deadline")
    total = 0
    events = []
    zone_cap = dev.zones.zones[0].cap_lbas
    for nlb in chunks:
        if total + nlb > zone_cap:
            break
        events.append(stack.submit(write(total, nlb)))
        total += nlb
    sim.run()
    assert all(e.value.ok for e in events)
    assert dev.zones.zones[0].wp == total
    assert dev.counters.bytes_written == total * dev.namespace.block_size
