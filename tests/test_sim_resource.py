"""Tests for bandwidth and slot resources (repro.sim.resource)."""

import pytest

from repro.errors import SimulationError
from repro.sim import BandwidthResource, Simulator, SlotResource
from repro.sim.time import ns


def test_transfer_duration_matches_bandwidth():
    sim = Simulator()
    bus = BandwidthResource(sim, bytes_per_ns=10.0)  # 10 GB/s
    done = []
    bus.transfer(1000).add_callback(lambda ev: done.append(sim.now))
    sim.run()
    assert done == [ns(100)]


def test_transfers_serialise():
    sim = Simulator()
    bus = BandwidthResource(sim, bytes_per_ns=1.0)
    times = []
    bus.transfer(100).add_callback(lambda ev: times.append(sim.now))
    bus.transfer(100).add_callback(lambda ev: times.append(sim.now))
    sim.run()
    assert times == [ns(100), ns(200)]
    assert bus.busy_ps == ns(200)
    assert bus.bytes_moved == 200


def test_latency_added_after_occupancy():
    sim = Simulator()
    link = BandwidthResource(sim, bytes_per_ns=1.0, latency_ps=ns(5))
    times = []
    link.transfer(10).add_callback(lambda ev: times.append(sim.now))
    link.transfer(10).add_callback(lambda ev: times.append(sim.now))
    sim.run()
    # latency overlaps with the next transfer's occupancy
    assert times == [ns(15), ns(25)]
    assert link.busy_ps == ns(20)


def test_occupancy_fraction():
    sim = Simulator()
    bus = BandwidthResource(sim, bytes_per_ns=1.0)
    bus.transfer(50)
    sim.run()
    sim.schedule(ns(50), lambda _: None)
    sim.run()
    assert bus.occupancy() == pytest.approx(0.5)


def test_zero_byte_transfer_completes():
    sim = Simulator()
    bus = BandwidthResource(sim, bytes_per_ns=1.0)
    fired = []
    bus.transfer(0).add_callback(lambda ev: fired.append(sim.now))
    sim.run()
    assert fired == [0]


def test_negative_transfer_rejected():
    sim = Simulator()
    bus = BandwidthResource(sim, bytes_per_ns=1.0)
    with pytest.raises(SimulationError):
        bus.transfer(-1)


def test_occupy_blocks_transfers():
    sim = Simulator()
    bus = BandwidthResource(sim, bytes_per_ns=1.0)
    times = []
    bus.occupy(ns(30)).add_callback(lambda ev: times.append(("occ", sim.now)))
    bus.transfer(10).add_callback(lambda ev: times.append(("xfer", sim.now)))
    sim.run()
    assert times == [("occ", ns(30)), ("xfer", ns(40))]


def test_slot_resource_blocks_and_wakes_fifo():
    sim = Simulator()
    slots = SlotResource(sim, 1)
    order = []

    def worker(tag, hold):
        yield slots.acquire()
        order.append((tag, sim.now))
        yield hold
        slots.release()

    sim.process(worker("a", 100))
    sim.process(worker("b", 100))
    sim.process(worker("c", 100))
    sim.run()
    assert order == [("a", 0), ("b", 100), ("c", 200)]
    assert slots.peak_in_use == 1


def test_slot_release_without_acquire_raises():
    sim = Simulator()
    slots = SlotResource(sim, 2)
    with pytest.raises(SimulationError):
        slots.release()


def test_slot_capacity_enforced():
    sim = Simulator()
    slots = SlotResource(sim, 2)
    granted = []
    slots.acquire().add_callback(lambda ev: granted.append(1))
    slots.acquire().add_callback(lambda ev: granted.append(2))
    slots.acquire().add_callback(lambda ev: granted.append(3))
    sim.run()
    assert granted == [1, 2]
    slots.release()
    sim.run()
    assert granted == [1, 2, 3]


def test_slot_resource_wakes_event_and_continuation_waiters_in_one_fifo():
    sim = Simulator()
    slots = SlotResource(sim, 1)
    order = []

    def process_worker(tag):
        yield slots.acquire()
        order.append((tag, sim.now))
        yield 100
        slots.release()

    def chain_worker(tag):
        def granted(_arg):
            order.append((tag, sim.now))
            sim.schedule(100, lambda _arg: slots.release())

        slots.acquire_then(granted)

    # alternate the two kinds of waiter, each queued at time 0
    sim.process(process_worker("p1"))
    sim.schedule(0, lambda _arg: chain_worker("c1"))
    sim.process(process_worker("p2"))
    sim.schedule(0, lambda _arg: chain_worker("c2"))
    sim.run()
    assert order == [("p1", 0), ("c1", 100), ("p2", 200), ("c2", 300)]
    assert slots.peak_in_use == 1
    assert slots.in_use == 0


def test_continuation_forms_push_what_their_event_forms_do():
    def run(chained):
        sim = Simulator()
        bus = BandwidthResource(sim, bytes_per_ns=1.0, latency_ps=ns(2))
        slots = SlotResource(sim, 1)
        log = []

        def record(tag):
            log.append((tag, sim.now, sim._seq))

        forms = [
            ("xfer", lambda: bus.transfer(10), lambda t: bus.transfer_then(10, record, t)),
            ("occ", lambda: bus.occupy(ns(5)), lambda t: bus.occupy_then(ns(5), record, t)),
            ("slot", slots.acquire, lambda t: slots.acquire_then(record, t)),
            ("queued", slots.acquire, lambda t: slots.acquire_then(record, t)),
        ]
        for tag, event_form, chain_form in forms:
            if chained:
                sim.defer(lambda _arg, form=chain_form, tag=tag: form(tag))
            else:
                def waiter(form=event_form, tag=tag):
                    yield form()
                    record(tag)

                sim.process(waiter())
        sim.schedule(ns(20), lambda _arg: slots.release())
        sim.run()
        return log

    chained = run(True)
    assert [tag for tag, _now, _seq in chained] == ["slot", "xfer", "occ", "queued"]
    assert chained == run(False)
