"""The unicast link cache vs the uncached reference (DESIGN.md §6.3).

``Medium`` keeps, on each sender radio, the unicast link to every
destination address it has used: the target radio, and for a static
pair also the distance, auto-rate, path loss and RSSI. The entry is
stamped with the medium's address epoch, which every ``register`` and
``unregister`` bumps. ``OracleMedium`` (``tests/phy_oracle.py``) looks
the target up and computes the geometry and ``combined_loss`` on every
frame. Each test runs the same seeded world through both and requires
identical deliveries (with rate and RSSI), ARQ failures, loss counters,
trace drops and RNG position. The worlds cover a static lab pair, a
mobile client, a target unregistered and re-registered elsewhere, a
second radio under the same address, a target that retunes or goes
deaf, and a sender that is re-registered.
"""

import pytest

from repro.mac import frames
from repro.obs.trace import TraceBus, TraceRecorder
from repro.phy.propagation import PropagationModel
from repro.phy.radio import Medium, Radio
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.world.geometry import Point
from repro.world.mobility import ConstantVelocityMobility, StaticMobility
from tests.phy_oracle import OracleMedium

MODEL = PropagationModel(range_m=100.0, base_loss=0.15, edge_start=0.7)


def _stream(sim, sender, dst, interval, count, start=0.0):
    """``count`` unicast data frames from ``sender`` to ``dst``."""
    for k in range(count):
        frame = frames.data_frame(sender.address, dst, (sender.name, k), 600)
        sim.schedule_at(start + k * interval, sender.transmit, frame)


def _register_at(medium, radio, x, y):
    """Register an unregistered ``radio`` again, pinned at ``(x, y)``."""
    radio.mobility = StaticMobility(Point(x, y))
    medium.register(radio)


def _relocate(medium, radio, x, y):
    """Unregister ``radio`` and register it again, pinned at ``(x, y)``."""
    medium.unregister(radio)
    _register_at(medium, radio, x, y)


def _static_lab(sim, medium, radio):
    ap = radio("ap", 0.0, 0.0)
    near = radio("near", 40.0, 0.0)
    fringe = radio("fringe", 0.0, 88.0)
    radio("far", 150.0, 0.0)
    _stream(sim, ap, "near", 0.01, 300)
    _stream(sim, ap, "fringe", 0.01, 300, start=0.003)
    _stream(sim, near, "ap", 0.02, 150, start=0.005)
    _stream(sim, fringe, "ap", 0.02, 150, start=0.007)
    _stream(sim, ap, "far", 0.1, 20, start=0.001)  # out of range: ARQ failure, no draw
    _stream(sim, ap, "ghost", 0.1, 20, start=0.002)  # no such address
    return [ap, near, fringe]


def _mobile_client(sim, medium, radio):
    ap = radio("ap", 0.0, 0.0)
    car = radio("car", mobility=ConstantVelocityMobility(Point(-150.0, 10.0), Point(20.0, 0.0)))
    _stream(sim, ap, "car", 0.01, 1500)
    _stream(sim, car, "ap", 0.02, 750, start=0.004)
    return [ap, car]


def _reregistered_target(sim, medium, radio):
    ap = radio("ap", 0.0, 0.0)
    client = radio("client", 30.0, 0.0)
    _stream(sim, ap, "client", 0.01, 600)
    _stream(sim, client, "ap", 0.02, 300, start=0.004)
    sim.schedule_at(2.0, medium.unregister, client)
    sim.schedule_at(3.0, _register_at, medium, client, 0.0, 85.0)  # back, in the fringe
    return [ap, client]


def _same_address(sim, medium, radio):
    ap = radio("ap", 0.0, 0.0)
    first = radio("client", 20.0, 0.0)
    _stream(sim, ap, "client", 0.01, 700)
    # A second radio joins under the same address; the first-registered
    # one stays the target until it leaves.
    sim.schedule_at(2.0, radio, "twin", 90.0, 0.0, "client")
    sim.schedule_at(4.0, medium.unregister, first)
    return [ap, first]


def _retuned_target(sim, medium, radio):
    ap = radio("ap", 0.0, 0.0)
    client = radio("client", 75.0, 0.0)
    _stream(sim, ap, "client", 0.01, 600)
    _stream(sim, client, "ap", 0.02, 300, start=0.004)
    sim.schedule_at(1.5, client.set_channel, 6)
    sim.schedule_at(2.5, client.set_channel, 1)
    sim.schedule_at(4.0, client.go_deaf, 0.5)
    return [ap, client]


def _reregistered_sender(sim, medium, radio):
    ap = radio("ap", 0.0, 0.0)
    radio("client", 50.0, 0.0)
    _stream(sim, ap, "client", 0.01, 600)
    # The sender moves next to the client, then out of its range.
    sim.schedule_at(2.0, _relocate, medium, ap, 45.0, 5.0)
    sim.schedule_at(4.0, _relocate, medium, ap, 0.0, 160.0)
    return [ap]


WORLDS = {
    "static-lab": _static_lab,
    "mobile-client": _mobile_client,
    "reregistered-target": _reregistered_target,
    "same-address": _same_address,
    "retuned-target": _retuned_target,
    "reregistered-sender": _reregistered_sender,
}


def _run(medium_class, world):
    sim = Simulator()
    bus = TraceBus()
    recorder = TraceRecorder(bus)
    bus.attach(sim)
    medium = medium_class(sim, MODEL, RandomStreams(7))
    radios = []
    log = []

    def radio(name, x=0.0, y=0.0, address=None, mobility=None):
        made = Radio(
            medium, mobility or StaticMobility(Point(x, y)), 1, name=name,
            address=address or name,
        )
        made.on_receive = lambda frame: log.append(
            ("rx", sim.now, name, frame.payload, frame.rate_bps, made.last_rssi)
        )
        made.on_unicast_failure = lambda frame: log.append(("fail", sim.now, name, frame.payload))
        radios.append(made)
        return made

    # A channel-3 neighbour keeps channel 1 interference-prone.
    noise = Radio(medium, StaticMobility(Point(0.0, -30.0)), 3, name="noise", address="noise")
    for k in range(400):
        sim.schedule_at(0.0125 * k, noise.transmit, frames.beacon("noise"))
    senders = WORLDS[world](sim, medium, radio)
    sim.run()
    counters = [
        (r.name, r.frames_sent, r.frames_received, r.frames_lost, r.rx_airtime) for r in radios
    ]
    drops = [(e.sim_t, e.kind, tuple(sorted(e.fields.items()))) for e in recorder.events]
    return {
        "log": log,
        "counters": counters,
        "drops": drops,
        "rng_probe": medium._rng.random(),
    }, senders


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_unicast_matches_uncached_reference(world):
    expected, _ = _run(OracleMedium, world)
    actual, senders = _run(Medium, world)
    assert actual == expected
    # The world exercised both outcomes of the loss draw and used the cache.
    kinds = {entry[0] for entry in expected["log"]}
    assert kinds == {"rx", "fail"}
    assert any(dropped for _, _, _, dropped, _ in expected["counters"])
    assert any(sender._links for sender in senders)


def test_static_pair_caches_geometry_and_mobile_pair_does_not():
    _, (ap, car) = _run(Medium, "mobile-client")
    assert ap._links["car"][3] is None and car._links["ap"][3] is None
    _, (ap, near, fringe) = _run(Medium, "static-lab")
    link = ap._links["near"]
    assert link[2] is near and link[3] == 40.0
    assert ap._links["far"][5] is None  # out of range: no path loss
    assert "ghost" not in ap._links
