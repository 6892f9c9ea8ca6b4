"""Unit tests for simulation resources (Resource, Container)."""

import pytest

from repro.sim import Container, Resource, SimulationError, Simulator, us


class TestResource:
    def test_capacity_must_be_positive(self):
        with pytest.raises(SimulationError):
            Resource(Simulator(), capacity=0)

    def test_grants_up_to_capacity_immediately(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        granted = []

        def worker(tag):
            req = res.request()
            yield req
            granted.append((sim.now, tag))
            yield sim.timeout(us(10))
            res.release(req)

        for tag in "abc":
            sim.process(worker(tag))
        sim.run()
        assert granted == [(0, "a"), (0, "b"), (us(10), "c")]

    def test_fifo_ordering_within_priority(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        order = []

        def worker(tag):
            req = res.request()
            yield req
            order.append(tag)
            yield sim.timeout(us(1))
            res.release(req)

        for tag in range(6):
            sim.process(worker(tag))
        sim.run()
        assert order == [0, 1, 2, 3, 4, 5]

    def test_lower_priority_number_served_first(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        order = []

        def hog():
            req = res.request()
            yield req
            yield sim.timeout(us(10))
            res.release(req)

        def worker(tag, prio):
            yield sim.timeout(us(1))  # arrive while hog holds the slot
            req = res.request(priority=prio)
            yield req
            order.append(tag)
            res.release(req)

        sim.process(hog())
        sim.process(worker("background", 10))
        sim.process(worker("io", 0))
        sim.run()
        assert order == ["io", "background"]

    def test_in_use_and_queue_length_accounting(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        r1 = res.request()
        r2 = res.request()
        assert res.in_use == 1
        assert res.queue_length == 1
        res.release(r1)
        assert res.in_use == 1
        assert res.queue_length == 0
        res.release(r2)
        assert res.in_use == 0

    def test_release_of_queued_request_rejected(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        r1 = res.request()
        r2 = res.request()
        with pytest.raises(SimulationError, match="holds no slot"):
            res.release(r2)  # still queued: holds no slot
        assert res.queue_length == 1
        res.release(r1)
        res.release(r2)
        assert res.in_use == 0

    def test_release_of_unknown_request_rejected(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        granted = res.request()
        res.release(granted)
        with pytest.raises(SimulationError):
            res.release(granted)


class TestContainer:
    def test_capacity_must_be_positive(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Container(sim, capacity=0)

    def test_put_then_get_levels(self):
        sim = Simulator()
        tank = Container(sim, capacity=100)
        tank.put(30)
        sim.run()
        assert tank.level == 30
        tank.get(10)
        sim.run()
        assert tank.level == 20

    def test_get_blocks_until_available(self):
        sim = Simulator()
        tank = Container(sim, capacity=100)
        got_at = []

        def consumer():
            yield tank.get(50)
            got_at.append(sim.now)

        def producer():
            yield sim.timeout(us(5))
            yield tank.put(30)
            yield sim.timeout(us(5))
            yield tank.put(30)

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got_at == [us(10)]
        assert tank.level == 10

    def test_put_blocks_when_full(self):
        sim = Simulator()
        tank = Container(sim, capacity=10)
        tank.put(8)
        put_at = []

        def producer():
            yield tank.put(5)
            put_at.append(sim.now)

        def consumer():
            yield sim.timeout(us(3))
            yield tank.get(4)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert put_at == [us(3)]
        assert tank.level == 9

    def test_oversized_put_rejected(self):
        sim = Simulator()
        tank = Container(sim, capacity=10)
        with pytest.raises(SimulationError):
            tank.put(11)

    def test_negative_amounts_rejected(self):
        sim = Simulator()
        tank = Container(sim, capacity=10)
        with pytest.raises(SimulationError):
            tank.put(-1)
        with pytest.raises(SimulationError):
            tank.get(-1)


class TestStreamFactory:
    def test_same_name_same_stream(self):
        from repro.sim import StreamFactory

        fac = StreamFactory(seed=7)
        a = fac.stream("alpha").random(5)
        b = fac.stream("alpha").random(5)
        assert (a == b).all()

    def test_different_names_differ(self):
        from repro.sim import StreamFactory

        fac = StreamFactory(seed=7)
        a = fac.stream("alpha").random(5)
        b = fac.stream("beta").random(5)
        assert not (a == b).all()

    def test_different_seeds_differ(self):
        from repro.sim import StreamFactory

        a = StreamFactory(seed=1).stream("x").random(5)
        b = StreamFactory(seed=2).stream("x").random(5)
        assert not (a == b).all()

    def test_salt_namespaces_streams(self):
        from repro.sim import StreamFactory

        plain = StreamFactory(seed=7).stream("x").random(5)
        salted = StreamFactory(seed=7, salt="point-a").stream("x").random(5)
        other = StreamFactory(seed=7, salt="point-b").stream("x").random(5)
        assert not (plain == salted).all()
        assert not (salted == other).all()

    def test_empty_salt_matches_unsalted(self):
        """The default empty salt must not change stream derivation —
        pre-salt results stay byte-identical."""
        from repro.sim import StreamFactory

        plain = StreamFactory(seed=7).stream("x").random(5)
        empty = StreamFactory(seed=7, salt="").stream("x").random(5)
        assert (plain == empty).all()

    def test_salted_stream_equals_prefixed_name(self):
        from repro.sim import StreamFactory

        salted = StreamFactory(seed=7, salt="s").stream("x").random(5)
        prefixed = StreamFactory(seed=7).stream("s/x").random(5)
        assert (salted == prefixed).all()


class TestLatencySampler:
    def test_zero_sigma_is_identity(self):
        from repro.sim import LatencySampler, StreamFactory

        sampler = LatencySampler(StreamFactory().stream("lat"), sigma=0.0)
        assert sampler.jitter(12345) == 12345

    def test_jitter_stays_near_nominal(self):
        from repro.sim import LatencySampler, StreamFactory

        sampler = LatencySampler(StreamFactory().stream("lat"), sigma=0.03)
        nominal = us(10)
        draws = [sampler.jitter(nominal) for _ in range(500)]
        mean = sum(draws) / len(draws)
        assert abs(mean - nominal) / nominal < 0.02
        assert all(0.8 * nominal < d < 1.25 * nominal for d in draws)

    def test_negative_nominal_rejected(self):
        from repro.sim import LatencySampler, StreamFactory

        sampler = LatencySampler(StreamFactory().stream("lat"))
        with pytest.raises(ValueError):
            sampler.jitter(-1)

    def test_negative_sigma_rejected(self):
        from repro.sim import LatencySampler, StreamFactory

        with pytest.raises(ValueError):
            LatencySampler(StreamFactory().stream("lat"), sigma=-0.1)
