"""Tests for the host storage stacks (SPDK, thrpool, io_uring)."""

import json

import pytest

from repro.conv import ConvDevice
from repro.core.experiments.common import build_stack
from repro.flash import KIB, MIB, FlashGeometry
from repro.hostif import Status, ZoneAction
from repro.sim import Simulator, ms, us
from repro.sim.engine import events_total
from repro.sim.rng import StreamFactory
from repro.stacks import (
    IoUringStack,
    SpdkStack,
    ThreadPoolStack,
    UnsupportedOperation,
)
from repro.workload import IoKind, JobRunner, JobSpec, Pattern
from repro.zns import ZnsDevice
from repro.zns.profiles import zn540_small

from .util import append, make_device, mgmt, read, write


def run(sim, event):
    return sim.run(until=event)


class TestSpdkStack:
    def test_write_latency_includes_stack_overhead(self):
        sim, dev = make_device()
        stack = SpdkStack(dev)
        run(sim, stack.submit(write(0, 1)))  # absorb implicit open
        cpl = run(sim, stack.submit(write(1, 1)))
        # Paper anchor: SPDK 4 KiB write = 11.36 µs (Observation #2).
        assert cpl.latency_ns == 10_790 + 560
        assert abs(cpl.latency_ns - us(11.36)) <= us(0.05)

    def test_append_8k_latency_anchor(self):
        sim, dev = make_device()
        stack = SpdkStack(dev)
        zone = dev.zones.zones[0]
        run(sim, stack.submit(append(zone.zslba, 2)))
        cpl = run(sim, stack.submit(append(zone.zslba, 2)))
        # Paper anchor: SPDK 8 KiB append = 14.02 µs (Observation #4).
        assert abs(cpl.latency_ns - us(14.02)) <= us(0.05)

    def test_supports_zone_management(self):
        sim, dev = make_device()
        stack = SpdkStack(dev)
        cpl = run(sim, stack.submit(mgmt(0, ZoneAction.OPEN)))
        assert cpl.ok

    def test_rejects_second_inflight_write_per_zone(self):
        sim, dev = make_device()
        stack = SpdkStack(dev)
        stack.submit(write(0, 1))
        with pytest.raises(UnsupportedOperation):
            stack.submit(write(1, 1))

    def test_concurrent_appends_allowed(self):
        sim, dev = make_device()
        stack = SpdkStack(dev)
        zone = dev.zones.zones[0]
        events = [stack.submit(append(zone.zslba, 1)) for _ in range(4)]
        sim.run()
        assert all(e.value.ok for e in events)

    def test_serialization_check_can_be_disabled(self):
        sim, dev = make_device()
        stack = SpdkStack(dev, enforce_write_serialization=False)
        stack.submit(write(0, 1))
        second = stack.submit(write(1, 1))
        sim.run()
        assert second.value.status is Status.ZONE_INVALID_WRITE  # device rejects


class TestIoUringStack:
    def test_none_scheduler_write_latency(self):
        sim, dev = make_device()
        stack = IoUringStack(dev, scheduler="none")
        run(sim, stack.submit(write(0, 1)))
        cpl = run(sim, stack.submit(write(1, 1)))
        # Paper anchor: kernel/none 4 KiB write = 12.62 µs.
        assert abs(cpl.latency_ns - us(12.62)) <= us(0.05)

    def test_mq_deadline_write_latency(self):
        sim, dev = make_device()
        stack = IoUringStack(dev, scheduler="mq-deadline")
        run(sim, stack.submit(write(0, 1)))
        cpl = run(sim, stack.submit(write(1, 1)))
        # Paper anchor: mq-deadline 4 KiB write = 14.47 µs (+1.85 µs).
        assert abs(cpl.latency_ns - us(14.47)) <= us(0.05)

    def test_append_unsupported(self):
        sim, dev = make_device()
        stack = IoUringStack(dev)
        with pytest.raises(UnsupportedOperation):
            stack.submit(append(0, 1))

    def test_zone_mgmt_unsupported(self):
        sim, dev = make_device()
        stack = IoUringStack(dev)
        with pytest.raises(UnsupportedOperation):
            stack.submit(mgmt(0, ZoneAction.RESET))

    def test_unknown_scheduler_rejected(self):
        _, dev = make_device()
        with pytest.raises(ValueError):
            IoUringStack(dev, scheduler="bfq")

    def test_reads_pass_through_scheduler(self):
        sim, dev = make_device()
        stack = IoUringStack(dev, scheduler="mq-deadline")
        run(sim, stack.submit(write(0, 1)))
        cpl = run(sim, stack.submit(read(0, 1)))
        assert cpl.ok


class TestThreadPoolStack:
    def test_write_latency_between_spdk_and_iouring(self):
        """Obs #2 ordering: SPDK < thrpool < io_uring host overhead."""
        latencies = {}
        for name, build in (
            ("spdk", SpdkStack),
            ("thrpool", ThreadPoolStack),
            ("iouring", lambda dev: IoUringStack(dev, scheduler="none")),
        ):
            sim, dev = make_device()
            stack = build(dev)
            run(sim, stack.submit(write(0, 1)))
            latencies[name] = run(sim, stack.submit(write(1, 1))).latency_ns
        assert latencies["spdk"] < latencies["thrpool"] < latencies["iouring"]
        # Calibration anchor: 10.79 µs device write + 1.10 µs pool hop.
        assert latencies["thrpool"] == 10_790 + 1_100

    def test_supports_append_and_zone_management(self):
        sim, dev = make_device()
        stack = ThreadPoolStack(dev)
        zone = dev.zones.zones[0]
        assert run(sim, stack.submit(append(zone.zslba, 2))).ok
        assert run(sim, stack.submit(mgmt(zone.zslba, ZoneAction.FINISH))).ok
        assert run(sim, stack.submit(mgmt(zone.zslba, ZoneAction.RESET))).ok

    def test_worker_count_bounds_device_concurrency(self):
        """N worker threads admit at most N in-flight device commands."""
        def makespan(num_threads, jobs=6):
            sim, dev = make_device()
            stack = ThreadPoolStack(dev, num_threads=num_threads)
            dev.force_fill(0, 512)
            events = [stack.submit(read(i, 1)) for i in range(jobs)]
            sim.run()
            assert all(e.value.ok for e in events)
            return max(e.value.completed_at for e in events)

        serial = makespan(1)
        dual = makespan(2)
        wide = makespan(6)
        # One worker serializes the queue; more workers overlap I/O.
        assert serial > dual > wide

    def test_single_worker_fifo_order(self):
        sim, dev = make_device()
        stack = ThreadPoolStack(dev, num_threads=1)
        dev.force_fill(0, 512)
        events = [stack.submit(read(i, 1)) for i in range(4)]
        sim.run()
        finished = [e.value.completed_at for e in events]
        assert finished == sorted(finished)  # strict submission order
        assert stack.stats.dispatched == 4

    def test_invalid_thread_count_rejected(self):
        _, dev = make_device()
        with pytest.raises(ValueError):
            ThreadPoolStack(dev, num_threads=0)


class TestThreadPoolDeterminism:
    """The new stack must satisfy the exec-engine identity contract."""

    @staticmethod
    def _blob(results):
        from repro.core.experiments.points import serialize_result

        return json.dumps(
            {k: serialize_result(v) for k, v in results.items()},
            sort_keys=True,
        )

    @pytest.mark.parametrize("faults", [None, "chaos"])
    def test_fig2b_byte_identical_at_any_jobs(self, faults):
        from repro.core import ExperimentConfig
        from repro.exec import execute_experiments
        from repro.sim import ms

        config = ExperimentConfig(point_runtime_ns=ms(2), ramp_ns=ms(0.4),
                                  num_zones=16, zones_per_level=3,
                                  stacks=("thrpool",), faults=faults)
        serial, _ = execute_experiments(["fig2b"], config, jobs=1)
        parallel, _ = execute_experiments(["fig2b"], config, jobs=4)
        assert self._blob(serial) == self._blob(parallel)
        rows = serial["fig2b"].rows
        assert rows and all(row["stack"] == "thrpool" for row in rows)
        # The sweep honors --stack thrpool: both ops on both formats.
        assert {row["op"] for row in rows} == {"write", "append"}

    def test_obs2_ordering_in_experiment_sweep(self):
        from repro.core import ExperimentConfig
        from repro.core.observations import check_obs2
        from repro.exec import execute_experiments
        from repro.sim import ms

        config = ExperimentConfig(point_runtime_ns=ms(2), ramp_ns=ms(0.4),
                                  num_zones=16, zones_per_level=3)
        results, _ = execute_experiments(["fig2b"], config, jobs=1)
        check = check_obs2(results["fig2b"])
        assert check.passed, check.details


class TestMqDeadlineMerging:
    def test_queued_contiguous_writes_merge(self):
        sim, dev = make_device()
        stack = IoUringStack(dev, scheduler="mq-deadline")
        events = [stack.submit(write(i, 1)) for i in range(16)]
        sim.run()
        completions = [e.value for e in events]
        assert all(c.ok for c in completions)
        # The first write dispatches alone; the 15 queued behind it merge.
        assert stack.stats.dispatched < 16
        assert stack.stats.merged_away / stack.stats.requests > 0.5
        assert any(c.merged_from > 1 for c in completions)

    def test_merged_write_advances_wp_correctly(self):
        sim, dev = make_device()
        stack = IoUringStack(dev, scheduler="mq-deadline")
        for i in range(8):
            stack.submit(write(i, 1))
        sim.run()
        assert dev.zones.zones[0].wp == 8

    def test_noncontiguous_writes_do_not_merge(self):
        sim, dev = make_device()
        stack = IoUringStack(dev, scheduler="mq-deadline")
        zone_size = dev.zones.size_lbas
        # Writes to two different zones, one request each: nothing to merge.
        e1 = stack.submit(write(0, 1))
        e2 = stack.submit(write(zone_size, 1))
        sim.run()
        assert e1.value.ok and e2.value.ok
        assert stack.stats.merged_away == 0

    def test_merge_respects_size_cap(self):
        sim, dev = make_device()
        stack = IoUringStack(dev, scheduler="mq-deadline", max_merge_bytes=8192)
        events = [stack.submit(write(i, 1)) for i in range(8)]
        sim.run()
        assert all(e.value.ok for e in events)
        # 8 × 4 KiB at a 8 KiB cap: at least 4 dispatches.
        assert stack.stats.dispatched >= 4

    def test_zones_dispatch_independently(self):
        sim, dev = make_device()
        stack = IoUringStack(dev, scheduler="mq-deadline")
        zone_size = dev.zones.size_lbas
        events = []
        for z in range(3):
            events += [stack.submit(write(z * zone_size + i, 1)) for i in range(4)]
        sim.run()
        assert all(e.value.ok for e in events)
        for z in range(3):
            assert dev.zones.zones[z].wp == z * zone_size + 4

    def test_high_qd_sequential_writes_merge_like_paper(self):
        """Obs #7: at QD16 fio reports 92.35% of writes merged."""
        sim, dev = make_device()
        stack = IoUringStack(dev, scheduler="mq-deadline")
        next_lba = [0]

        def writer():
            while next_lba[0] < 2_000:
                lba = next_lba[0]
                next_lba[0] += 1
                yield stack.submit(write(lba, 1))

        workers = [sim.process(writer()) for _ in range(16)]
        sim.run(until=sim.all_of(workers))
        assert stack.stats.merged_away / stack.stats.requests > 0.8


class _ProcessPerCommand:
    """Wraps a stack or device so each command runs in a process of its
    own, the shape the host path had before commands ran inside the
    waiting process. Everything else is read through from the target."""

    def __init__(self, target):
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)

    def issue(self, command):
        return (yield self._target.submit(command))


class TestInlineExecutionIsExact:
    """Running a command inside the waiting process moves no output: the
    same jobs give the same results, counters and end time as they do
    with a process per command at both the stack and the device, and
    dispatch fewer events."""

    GRID = [
        ("zns", "spdk", IoKind.WRITE),
        ("zns", "spdk", IoKind.APPEND),
        ("zns", "iouring-none", IoKind.WRITE),
        ("zns", "iouring-none", IoKind.READ),
        ("zns", "iouring-mq-deadline", IoKind.WRITE),
        ("zns", "thrpool", IoKind.WRITE),
        ("conv", "spdk", IoKind.WRITE),
        ("conv", "iouring-none", IoKind.WRITE),
    ]

    @staticmethod
    def _run(kind, stack_name, op, iodepth, process_per_command):
        geometry = FlashGeometry(channels=4, dies_per_channel=2,
                                 planes_per_die=1, blocks_per_plane=64,
                                 pages_per_block=16, page_size=16 * KIB)
        if kind == "zns":
            sim = Simulator()
            device = ZnsDevice(sim, zn540_small(zone_size_bytes=MIB,
                                                zone_cap_bytes=MIB),
                               streams=StreamFactory(7))
            if stack_name == "spdk" and op == IoKind.WRITE:
                # One in-flight write per zone under SPDK: the depth is
                # spread over one-zone threads (Fig. 4b's inter-zone shape).
                shape = dict(numjobs=iodepth, zones=range(iodepth),
                             zone_per_thread=True)
            else:
                shape = dict(iodepth=iodepth, zones=[0, 1, 2, 3])
            job = JobSpec(op=op, block_size=16 * KIB, runtime_ns=ms(2),
                          ramp_ns=us(200), **shape)
            if op == IoKind.READ:
                for zone in job.zones:
                    device.force_fill(zone, device.zones.zones[zone].cap_lbas)
        else:
            sim = Simulator()
            device = ConvDevice(sim, zn540_small(geometry=geometry,
                                                 write_buffer_bytes=4 * MIB),
                                streams=StreamFactory(7))
            job = JobSpec(op=op, block_size=16 * KIB, runtime_ns=ms(2),
                          ramp_ns=us(200), iodepth=iodepth,
                          pattern=Pattern.RANDOM, address_range=(0, 4096))
        host = _ProcessPerCommand(device) if process_per_command else device
        stack = build_stack(host, stack_name)
        if process_per_command:
            stack = _ProcessPerCommand(stack)
        before = events_total()
        result = JobRunner(host, stack, job).run()
        events = events_total() - before
        counters = device.counters
        return events, {
            "ops": result.ops,
            "bytes": result.bytes,
            "resets": result.resets,
            "errors": result.errors,
            "measured_ns": result.measured_ns,
            "latency": result.latency.asarray().tolist(),
            "reset_latency": result.reset_latency.asarray().tolist(),
            "completed": counters.completed,
            "device_errors": counters.errors,
            "bytes_written": device.metrics.get("device.bytes_written").value,
            "bytes_read": device.metrics.get("device.bytes_read").value,
            "pages_programmed": device.backend.counters.pages_programmed,
            "stack": vars(stack.stats),
            "now": sim.now,
        }

    @pytest.mark.parametrize("iodepth", [1, 8])
    @pytest.mark.parametrize("kind,stack_name,op", GRID)
    def test_same_outcome_as_a_process_per_command(self, kind, stack_name,
                                                   op, iodepth):
        inline_events, inline = self._run(kind, stack_name, op, iodepth,
                                          process_per_command=False)
        old_events, old = self._run(kind, stack_name, op, iodepth,
                                    process_per_command=True)
        assert inline["ops"] > 0
        assert inline == old
        assert inline_events < old_events
