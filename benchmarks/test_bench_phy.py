"""Bench: PHY medium microbenchmarks — per-frame cost vs fleet size.

Unlike the figure benches (which regenerate paper artifacts), these
target the medium hot path directly: broadcast fan-out, unicast ARQ,
and dense-downtown scenario stepping, each swept over fleet size.
Before the indexed medium, every delivery paid an O(#radios) scan, so
wall time per frame grew linearly with fleet size; the sweep makes
that visible (and `benchmarks/compare.py` keeps it from coming back).

Radios are spread over the three orthogonal channels and along a line
much longer than the radio range — the dense-downtown shape (the
preset generates ~40 APs over a multi-km loop with ~100 m cells): for
any given sender most of the fleet is off-channel or out of range,
which is exactly where a full-registry scan wastes its work.
"""

import time

import pytest

from repro.mac import frames
from repro.phy.channels import ORTHOGONAL_CHANNELS
from repro.phy.propagation import PropagationModel
from repro.phy.radio import Medium, Radio
from repro.scenario.build import build, make_fleet, run_spec
from repro.scenario.registry import scenario
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.world.geometry import Point
from repro.world.mobility import StaticMobility

#: Fleet sizes for the sweep. 8 ≈ the paper's lab, 32 ≈ the Amherst
#: loop, 128 ≈ the dense-downtown regime the ROADMAP targets.
RADIO_COUNTS = (8, 32, 128)

#: City-scale sweep (DESIGN.md §6.2): the fleet grows 10× but the
#: line geometry keeps each sender's *local* density constant, so with
#: the spatial grid the per-frame cost must stay flat — a 10× jump is
#: exactly the reintroduced-global-scan regression compare.py gates.
CITY_RADIO_COUNTS = (1000, 10000)


def _fleet(count, loss=0.0, seed=7):
    """`count` static radios spread over channels 1/6/11 along a line.

    25 m spacing puts a handful of same-channel radios inside any
    sender's 100 m cell while the rest of the fleet sits far down the
    road — the storefront-row geometry of the dense-downtown preset.
    """
    sim = Simulator()
    medium = Medium(
        sim,
        PropagationModel(range_m=100.0, base_loss=loss, edge_start=0.9),
        RandomStreams(seed),
    )
    radios = [
        Radio(
            medium,
            StaticMobility(Point(index * 25.0, float(index % 5))),
            ORTHOGONAL_CHANNELS[index % 3],
            name=f"r{index}",
            address=f"r{index}",
        )
        for index in range(count)
    ]
    return sim, medium, radios


def _broadcast_fanout(count, frames_per_sender=600):
    """Three senders (one per channel) each beacon `frames_per_sender` times.

    Each sender re-sends one pre-built beacon on a chained timer: the
    event heap stays shallow and no per-send frame allocation dilutes
    the medium cost under measurement.
    """
    sim, medium, radios = _fleet(count)
    delivered = [0]

    def bump(_frame):
        delivered[0] += 1

    for radio in radios[3:]:
        radio.on_receive = bump

    def pump(sender, frame, remaining):
        sender.transmit(frame)
        if remaining:
            sim.schedule(0.003, pump, sender, frame, remaining - 1)

    for sender_index in range(3):
        sender = radios[sender_index]
        sim.schedule(0.0, pump, sender, frames.beacon(sender.name), frames_per_sender - 1)
    sim.run()
    return {
        "radios": count,
        "frames_sent": 3 * frames_per_sender,
        "frames_delivered": delivered[0],
    }


def _unicast_arq(count, frame_count=1200):
    """A lossy unicast link with ARQ across a fleet of bystanders.

    The sender and target register *last*, as a client radio does after
    the AP fleet is wired — the representative worst case for any
    address lookup that walks the registry.
    """
    sim, medium, radios = _fleet(count, loss=0.30)
    sender = Radio(medium, StaticMobility(Point(0.0, 20.0)), 1, name="tx", address="tx")
    target = Radio(medium, StaticMobility(Point(21.0, 20.0)), 1, name="rx", address="rx")
    delivered = [0]
    target.on_receive = lambda _frame: delivered.__setitem__(0, delivered[0] + 1)

    def pump(frame, remaining):
        sender.transmit(frame)
        if remaining:
            sim.schedule(0.004, pump, frame, remaining - 1)

    sim.schedule(0.0, pump, frames.data_frame("tx", "rx", None, 600), frame_count - 1)
    sim.run()
    return {
        "radios": count,
        "frames_sent": frame_count,
        "frames_delivered": delivered[0],
    }


def _city_fanout(count, frames_per_sender=400):
    """The broadcast sweep at city scale, with per-frame cost reported.

    Setup (registering `count` radios) happens outside the timed
    region of interest conceptually, but `once()` times the whole
    call — so the delivery loop dominates by sending 3×400 frames
    against a one-off O(count) build.
    """
    setup_start = time.perf_counter()
    sim, medium, radios = _fleet(count)
    setup_s = time.perf_counter() - setup_start
    delivered = [0]

    def bump(_frame):
        delivered[0] += 1

    for radio in radios[3:]:
        radio.on_receive = bump

    def pump(sender, frame, remaining):
        sender.transmit(frame)
        if remaining:
            sim.schedule(0.003, pump, sender, frame, remaining - 1)

    for sender_index in range(3):
        sender = radios[sender_index]
        sim.schedule(0.0, pump, sender, frames.beacon(sender.name), frames_per_sender - 1)
    deliver_start = time.perf_counter()
    sim.run()
    deliver_s = time.perf_counter() - deliver_start
    sent = 3 * frames_per_sender
    return {
        "radios": count,
        "frames_sent": sent,
        "frames_delivered": delivered[0],
        "setup_s": round(setup_s, 6),
        "us_per_frame": round(deliver_s / sent * 1e6, 3),
    }


def _metro_core_step(window=1.0):
    """One step window of the metro-core city: 10k+ APs, four regions.

    The acceptance bar for the partitioned-medium tentpole: a 10k-AP
    world must *build* fast and *advance* a benchmark window in
    seconds, with the client fleet enrolled for edge handoff.
    """
    spec = scenario("metro-core", duration=window)
    build_start = time.perf_counter()
    world = build(spec)
    build_s = time.perf_counter() - build_start
    assert len(world.aps) >= 10000, f"metro-core shrank: {len(world.aps)} APs"
    assert world.partitions is not None
    make_fleet(world, spec)
    step_start = time.perf_counter()
    world.sim.run(until=window)
    step_s = time.perf_counter() - step_start
    return {
        "aps": len(world.aps),
        "window_s": window,
        "build_s": round(build_s, 6),
        "step_s": round(step_s, 6),
        "handoffs": world.partitions.handoffs,
    }


def _dense_downtown_steps(duration=120.0):
    """Step the dense-downtown preset: the scenario the index exists for."""
    spec = scenario("dense-downtown", duration=duration, seed=3)
    results = run_spec(spec)
    throughput = sum(result.summary()["throughput_KBps"] for result in results.values())
    return {"duration": duration, "throughput_KBps": throughput}


@pytest.mark.parametrize("radios", RADIO_COUNTS)
def test_bench_phy_broadcast_fanout(once, radios):
    result = once(_broadcast_fanout, radios)
    assert result["frames_delivered"] > 0


@pytest.mark.parametrize("radios", RADIO_COUNTS)
def test_bench_phy_unicast_arq(once, radios):
    result = once(_unicast_arq, radios)
    # h=30% with 4 ARQ attempts: the vast majority must get through.
    assert result["frames_delivered"] > result["frames_sent"] * 0.9


def test_bench_phy_dense_downtown_steps(once):
    result = once(_dense_downtown_steps)
    assert result["throughput_KBps"] > 0.0


@pytest.mark.parametrize("radios", CITY_RADIO_COUNTS)
def test_bench_phy_city_fanout(once, radios):
    result = once(_city_fanout, radios)
    assert result["frames_delivered"] > 0


def test_bench_phy_metro_core_step(once):
    result = once(_metro_core_step)
    assert result["aps"] >= 10000
    assert result["step_s"] < 60.0  # "steps in seconds", with CI slack
