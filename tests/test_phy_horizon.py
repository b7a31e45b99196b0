"""Reach horizons for moving receivers vs the reference scan (DESIGN.md §6.3).

A static sender that finds a mobile receiver out of range at distance
``d`` skips it, without evaluating its position, until the receiver
could first be back within range: ``now + (d - range - 1) /
max_speed``. Every test runs the same seeded world through ``Medium``
and ``OracleMedium`` (``tests/phy_oracle.py``, which evaluates every
receiver on every frame) and requires identical deliveries and RNG
draws (the lapping world also loss counters and trace drops), plus
evidence that the horizon actually skipped work or was dropped.
"""

import pytest

from repro.mac import frames
from repro.obs.trace import TraceBus, TraceRecorder
from repro.phy.propagation import PropagationModel
from repro.phy.radio import Medium, Radio
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.world.geometry import Point
from repro.world.mobility import (
    ConstantVelocityMobility,
    LoopRouteMobility,
    MobilityModel,
    StaticMobility,
    WaypointMobility,
    rectangular_loop,
)
from tests.phy_oracle import OracleMedium

#: Zero loss everywhere in range: every in-range beacon is delivered.
LOSSLESS = PropagationModel(range_m=100.0, base_loss=0.0, edge_start=1.0)


class _Counting:
    """Mixin: count position evaluations."""

    calls = 0

    def position(self, time):
        self.calls += 1
        return super().position(time)


class CountingLoop(_Counting, LoopRouteMobility):
    pass


class CountingVelocity(_Counting, ConstantVelocityMobility):
    pass


class Unbounded(MobilityModel):
    """A mover that states no speed bound (``max_speed`` is None)."""

    def __init__(self):
        self.calls = 0

    def position(self, time):
        self.calls += 1
        return Point(150.0 - 10.0 * time, 30.0)


def _beacons(sim, sender, interval, count, phase=0.0):
    for k in range(count):
        sim.schedule_at(phase + k * interval, sender.transmit, frames.beacon(sender.name))


def _lapping_world(medium_class):
    sim = Simulator()
    bus = TraceBus()
    recorder = TraceRecorder(bus)
    bus.attach(sim)
    medium = medium_class(
        sim, PropagationModel(range_m=100.0, base_loss=0.15, edge_start=0.7), RandomStreams(4)
    )
    # A 1,200 m loop driven at 20 m/s: one lap per minute.
    lap = CountingLoop(rectangular_loop(400.0, 200.0), speed=20.0)
    client = Radio(medium, lap, 1, name="car", address="car")
    parked = Radio(
        medium, WaypointMobility([Point(0.0, 0.0), Point(300.0, 0.0)], speed=15.0), 1,
        name="parker", address="parker",
    )
    wanderer = Radio(medium, Unbounded(), 1, name="wanderer", address="wanderer")
    spots = [(50.0, -40.0), (200.0, 60.0), (420.0, 100.0), (300.0, 260.0),
             (-60.0, 150.0), (200.0, 100.0), (900.0, 900.0)]
    aps = [
        Radio(medium, StaticMobility(Point(x, y)), 1 if i % 3 else 6,
              name=f"ap{i}", address=f"ap{i}")
        for i, (x, y) in enumerate(spots)
    ]
    log = []
    for radio in [client, parked, wanderer] + aps:
        radio.on_receive = (
            lambda frame, name=radio.name: log.append((sim.now, name, frame.src))
        )
    for i, ap in enumerate(aps):
        _beacons(sim, ap, 0.1, 1300, phase=0.013 * i)
    # Mid-run the car hops to channel 6 and back.
    sim.schedule_at(40.0, client.set_channel, 6)
    sim.schedule_at(55.0, client.set_channel, 1)
    sim.run()
    counters = [
        (r.name, r.frames_received, r.frames_lost, r.last_rssi, r.rx_airtime)
        for r in [client, parked, wanderer] + aps
    ]
    drops = [(e.sim_t, e.kind, tuple(sorted(e.fields.items()))) for e in recorder.events]
    return {
        "log": log,
        "counters": counters,
        "drops": drops,
        "rng_probe": medium._rng.random(),
    }, lap.calls, wanderer.mobility.calls, aps


class TestLappingClient:
    def test_lapping_client_matches_oracle(self):
        oracle, oracle_calls, oracle_unbounded, _ = _lapping_world(OracleMedium)
        medium, calls, unbounded, aps = _lapping_world(Medium)
        assert medium == oracle
        # More than two laps, with frames both delivered and lost.
        assert any(name == "car" for _, name, _ in oracle["log"])
        assert any(dropped for _, _, dropped, _, _ in oracle["counters"])
        # The horizon skipped most of the car's evaluations...
        assert calls < oracle_calls / 2
        assert any(ap._horizons for ap in aps)
        # ...but never those of a model with no stated speed bound.
        assert unbounded == oracle_unbounded
        assert not any(ap._horizons and any(r.name == "wanderer" for r in ap._horizons)
                       for ap in aps)


def _approach(medium_class):
    """A client at 10 m/s heads for an AP from 1 km out."""
    sim = Simulator()
    medium = medium_class(sim, LOSSLESS, RandomStreams(2))
    ap = Radio(medium, StaticMobility(Point(0.0, 0.0)), 1, name="ap", address="ap")
    mobility = CountingVelocity(Point(1000.0, 0.0), Point(-10.0, 0.0))
    client = Radio(medium, mobility, 1, name="client", address="client")
    heard = []
    client.on_receive = lambda frame: heard.append(sim.now)
    interval, phase = 0.1, 0.05
    _beacons(sim, ap, interval, 1000, phase=phase)
    sim.run()
    return heard, mobility.calls, medium._rng.random(), medium.airtime(frames.beacon("ap"))


class TestRangeEdgeAfterLongSkip:
    def test_first_in_range_beacon_is_received(self):
        heard, calls, probe, air = _approach(Medium)
        oracle_heard, oracle_calls, oracle_probe, _ = _approach(OracleMedium)
        assert heard == oracle_heard
        assert probe == oracle_probe
        # The first beacon that completes with the client within 100 m.
        first = next(0.05 + k * 0.1 + air for k in range(1000)
                     if 1000.0 - 10.0 * (0.05 + k * 0.1 + air) <= 100.0)
        assert heard[0] == pytest.approx(first, abs=1e-9)
        # One skip covered the approach: the horizon set at t=0.05
        # (999.5 m out) runs to t=89.9, so the 898 beacons in between
        # never asked the client where it is.
        assert oracle_calls == 1000
        assert oracle_calls - calls == 898


def _swap_world(medium_class, swap):
    sim = Simulator()
    medium = medium_class(sim, LOSSLESS, RandomStreams(6))
    sender = Radio(medium, StaticMobility(Point(0.0, 0.0)), 1, name="s", address="s")
    # Crawling 1 km away: a horizon of about half an hour.
    client = Radio(medium, ConstantVelocityMobility(Point(1000.0, 0.0), Point(0.0, 0.5)), 1,
                   name="c", address="c")
    heard = []
    client.on_receive = lambda frame: heard.append(sim.now)
    _beacons(sim, sender, 0.5, 10)
    sim.schedule_at(2.2, swap, medium, sender, client)
    states = []
    sim.schedule_at(2.1, lambda: states.append(sender._horizons))
    sim.schedule_at(2.3, lambda: states.append(sender._horizons))
    sim.run()
    return heard, medium._rng.random(), states


def _swap_mobility(medium, sender, client):
    client.mobility = StaticMobility(Point(30.0, 0.0))


def _move_sender(medium, sender, client):
    medium.unregister(sender)
    sender.mobility = StaticMobility(Point(990.0, 5.0))
    medium.register(sender)


class TestHorizonInvalidation:
    def test_mobility_swap_drops_the_horizon(self):
        heard, probe, states = _swap_world(Medium, _swap_mobility)
        assert (heard, probe) == _swap_world(OracleMedium, _swap_mobility)[:2]
        assert states[0]  # a horizon was held before the swap
        assert [round(t, 1) for t in heard] == [2.5, 3.0, 3.5, 4.0, 4.5]

    def test_sender_reregistration_drops_the_horizon(self):
        heard, probe, states = _swap_world(Medium, _move_sender)
        assert (heard, probe) == _swap_world(OracleMedium, _move_sender)[:2]
        assert states[0] and states[1] is None
        assert [round(t, 1) for t in heard] == [2.5, 3.0, 3.5, 4.0, 4.5]
