"""Saturated-channel goldens: worlds whose channels back up.

Every other golden runs worlds whose channels are mostly idle, so a
frame rarely waits for the air. These two worlds offer more airtime
than a channel can carry, so hundreds of frames queue behind the one
on the air:

- ``co-channel-150``: 150 APs on channel 1 (plus a few on channel 6)
  within range of each other and of one static Spider client, for
  0.5 sim-s. Beacons alone offer ~1.8 s of airtime per sim-s.
- ``two-channel-tie``: two mirrored senders on channels 1 and 6 that
  queue identical frame sequences (broadcasts, ARQ unicasts, and a
  drifting client each), so their completions tie *exactly* in time
  and only the engine's sequence numbers order them. The channels take
  turns queueing first, so the tie order flips from slot to slot.

Both digests were recorded before the medium stopped keeping one heap
entry per queued frame. ``Medium`` and the reference full-channel scan
(``tests/phy_oracle.py``) must both reproduce them.
"""

import contextlib
import hashlib
import json
from pathlib import Path

import pytest

from repro.mac import frames
from repro.obs.metrics import MetricsRegistry
from repro.phy.propagation import PropagationModel
from repro.phy.radio import Medium, Radio
from repro.scenario import (
    ApSpec,
    DeploymentSpec,
    DriverSpec,
    MobilitySpec,
    ScenarioSpec,
    build,
    make_fleet,
    result_from_driver,
)
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.world.geometry import Point
from repro.world.mobility import MobilityModel, StaticMobility
from tests.phy_oracle import OracleMedium, oracle_mediums

GOLDENS = Path(__file__).parent / "goldens" / "scenario-digests.json"

with open(GOLDENS, encoding="utf-8") as _handle:
    _SATURATED = json.load(_handle)["saturated"]


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _co_channel_spec() -> ScenarioSpec:
    aps = [
        ApSpec(f"c1-{i:03d}", 1, 2e6, x=5.0 * (i % 15) - 35.0, y=5.0 * (i // 15) - 25.0)
        for i in range(150)
    ]
    aps += [ApSpec(f"c6-{i}", 6, 4e6, x=10.0 * i - 20.0, y=12.0) for i in range(5)]
    return ScenarioSpec(
        name="saturated-co-channel",
        seed=3,
        duration=0.5,
        mobility=MobilitySpec(kind="static", x=0.0, y=0.0),
        deployment=DeploymentSpec(kind="explicit", aps=tuple(aps)),
        drivers=(
            DriverSpec(
                kind="spider",
                address="spider",
                config={"schedule": {"1": 0.5, "6": 0.5}, "period": 0.2, "multi_ap": True},
            ),
        ),
    )


def co_channel_run(oracle: bool) -> dict:
    spec = _co_channel_spec()
    with oracle_mediums() if oracle else contextlib.nullcontext():
        world = build(spec)
    drivers = make_fleet(world, spec)
    for driver in drivers:
        driver.start()
    world.sim.run(until=spec.duration)
    for driver in drivers:
        driver.stop()
    backlog_s = world.medium.channel_busy_until(1) - world.sim.now
    return {
        "backlog_s": backlog_s,
        "events": world.sim.events_executed,
        "radios": {
            name: [ap.radio.frames_sent, ap.radio.frames_received, ap.radio.frames_lost]
            for name, ap in sorted(world.aps.items())
        },
        "drivers": {
            driver.address: result_from_driver(driver, spec.duration).summary()
            for driver in drivers
        },
    }


class _Drift(MobilityModel):
    """A client walking along +x at 2 m/s (never pinned as static)."""

    def __init__(self, y: float):
        self.y = y

    def position(self, time: float) -> Point:
        return Point(-30.0 + 2.0 * time, self.y)


def two_channel_run(oracle: bool) -> dict:
    sim = Simulator()
    medium_class = OracleMedium if oracle else Medium
    medium = medium_class(sim, PropagationModel(range_m=100.0), RandomStreams(11))
    log = []
    failures = []
    senders = {}
    walkers = {}
    for channel in (1, 6):
        sender = Radio(medium, StaticMobility(Point(0.0, 0.0)), channel, name=f"ap{channel}")
        sender.on_unicast_failure = lambda frame: failures.append((sim.now.hex(), frame.payload))
        senders[channel] = sender
        walkers[channel] = Radio(medium, _Drift(5.0), channel, name=f"walker{channel}")
        for i in range(30):
            Radio(medium, StaticMobility(Point(3.2 * i, 4.0)), channel, name=f"rx{channel}-{i}")
    for radio in medium.radios_on_channel(1) + medium.radios_on_channel(6):
        radio.on_receive = lambda frame, name=radio.name: log.append(
            (sim.now.hex(), name, frame.payload)
        )

    def burst(k: int) -> None:
        # Alternate which channel queues first, so the tie order of
        # one slot's completions is the reverse of the previous slot's:
        # only keys fixed at queue time get both right.
        for channel in (1, 6) if k % 2 == 0 else (6, 1):
            sender = senders[channel]
            sender.transmit(frames.mgmt_frame(
                frames.FrameType.BEACON, sender.address, frames.BROADCAST, ("b", k),
            ))
            if k % 7 == 0:
                sender.transmit(frames.data_frame(
                    sender.address, f"rx{channel}-29", ("u", k), 600,
                ))
            if k % 11 == 0:
                walker = walkers[channel]
                walker.transmit(frames.mgmt_frame(
                    frames.FrameType.PROBE_REQUEST, walker.address, frames.BROADCAST, ("p", k),
                ))

    for k in range(240):
        sim.schedule(0.0005 * k, burst, k)
    backlog = []
    sim.schedule(0.06, lambda: backlog.append(medium.channel_busy_until(6) - sim.now))
    sim.run(until=0.5)
    tied = {}
    for when, name, _payload in log:
        tied.setdefault(when, set()).add(name.startswith(("ap1", "rx1", "walker1")))
    return {
        "backlog_s": backlog[0],
        "tied_instants": sum(1 for sides in tied.values() if len(sides) == 2),
        "events": sim.events_executed,
        "log": log,
        "failures": failures,
        "lost": [
            [radio.name, radio.frames_received, radio.frames_lost]
            for radio in medium.radios_on_channel(1) + medium.radios_on_channel(6)
        ],
    }


@pytest.mark.parametrize("oracle", [False, True], ids=["medium", "oracle"])
def test_co_channel_backlog_golden(oracle):
    result = co_channel_run(oracle)
    # The world really saturates: channel 1 ends the window with far
    # more than a beacon interval of airtime still queued.
    assert result["backlog_s"] > 0.2
    assert _digest(result) == _SATURATED["co-channel-150"]


@pytest.mark.parametrize("oracle", [False, True], ids=["medium", "oracle"])
def test_two_channel_tie_golden(oracle):
    result = two_channel_run(oracle)
    assert result["backlog_s"] > 0.05
    # Completions on the two channels coincide to the bit: only the
    # engine's tie-break sequence orders them.
    assert result["tied_instants"] > 50
    assert result["failures"], "the far unicast target should exhaust some ARQ attempts"
    assert _digest(result) == _SATURATED["two-channel-tie"]


def test_air_backlog_counts_frames_waiting_for_the_air():
    sim = Simulator()
    registry = MetricsRegistry()
    sim.metrics = registry
    medium = Medium(sim, PropagationModel(range_m=100.0), RandomStreams(1))
    sender = Radio(medium, StaticMobility(Point(0.0, 0.0)), 1, name="a")
    Radio(medium, StaticMobility(Point(10.0, 0.0)), 1, name="b")
    Radio(medium, StaticMobility(Point(0.0, 0.0)), 6, name="c")
    for _ in range(200):
        sender.transmit(frames.beacon("a"))
    # The frame that found the channel idle, and the head of the queue
    # behind it, are heap events; the rest wait off-heap, and still
    # count as pending.
    assert registry.snapshot()["phy.air_backlog"] == 198
    assert sim.pending_events == 200
    assert sim.heap_depth == 2
    sim.run()
    assert registry.snapshot()["phy.air_backlog"] == 0
    assert sender.frames_sent == 200


def test_drained_run_leaves_every_airtime_lane_empty():
    """Airtime FIFO conservation on a world that backs up, then drains.

    Every transmitted frame completes its first attempt exactly once,
    on its channel in transmit order; ARQ retries come on top. When the
    run drains, every lane is empty and idle and nothing is pending.
    """
    sim = Simulator()
    registry = MetricsRegistry()
    sim.metrics = registry
    medium = Medium(sim, PropagationModel(range_m=100.0), RandomStreams(5))
    completions = []
    for name in ("_deliver_broadcast", "_deliver_unicast"):
        deliver = getattr(medium, name)

        def record(sender, frame, channel, extra, deliver=deliver):
            completions.append((sim.now, channel, frame.payload))
            deliver(sender, frame, channel, extra)

        setattr(medium, name, record)
    senders = {}
    for channel in (1, 6):
        origin = StaticMobility(Point(0.0, 0.0))
        senders[channel] = Radio(medium, origin, channel, name=f"ap{channel}")
        Radio(medium, _Drift(3.0), channel, name=f"walker{channel}")
        for i in range(20):
            Radio(medium, StaticMobility(Point(4.5 * i, 2.0)), channel, name=f"rx{channel}-{i}")
    sent = {1: [], 6: []}

    def burst(k: int) -> None:
        for channel, sender in senders.items():
            payload = (channel, k)
            sent[channel].append(payload)
            if k % 3:
                sender.transmit(frames.mgmt_frame(
                    frames.FrameType.BEACON, sender.address, frames.BROADCAST, payload,
                ))
            else:
                sender.transmit(frames.data_frame(sender.address, f"rx{channel}-19", payload, 900))

    for k in range(300):
        sim.schedule(0.0004 * k, burst, k)
    peak = []
    sim.schedule(0.1, lambda: peak.append(registry.snapshot()["phy.air_backlog"]))
    sim.run()
    assert peak[0] > 100, "the channels should back up"
    for channel in (1, 6):
        seen = set()
        first = []
        for when, on, payload in completions:
            if on == channel and payload not in seen:
                seen.add(payload)
                first.append((when, payload))
        assert [payload for _when, payload in first] == sent[channel]
        assert [when for when, _payload in first] == sorted(when for when, _payload in first)
    assert len(completions) > 600, "some unicast frames should need ARQ retries"
    lanes = [lane for lanes in medium._air_lanes.values() for lane in lanes]
    assert lanes and all(len(lane) == 0 and not lane._queue for lane in lanes)
    assert registry.snapshot()["phy.air_backlog"] == 0
    assert sim.pending_events == 0 and sim.heap_depth == 0
