"""The static pair table vs the per-sender reference (DESIGN.md §6.3).

``Medium._fill_pairs`` builds the fan-out row of every static radio on
a channel in one pass: each unordered pair is computed once and its
entry appended to both ends' rows. ``reference_pairs`` in
``tests/phy_oracle.py`` builds one row from the sender's end alone, as
the per-sender cache it replaced did. Every test here checks that the
two agree on members, order and the exact ``base``/``rssi`` floats:

- on hypothesis-generated static layouts with pairs at distance 0,
  exactly at ``range_m`` and at ``fringe_start_m``, radios across cell
  edges and at negative coordinates, on mixed channels;
- through membership changes while frames are in flight — a static
  client retuning, a static radio joining or leaving, a sender
  unregistered between transmit and completion, a partition handoff —
  where the deliveries, counters and RNG position must also equal an
  ``OracleMedium`` run's;
- on all 10,960 rows of the full ``metro-core`` build.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mac import frames
from repro.phy.propagation import PropagationModel
from repro.phy.radio import Medium, Radio
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.world.geometry import Point
from repro.world.mobility import StaticMobility
from tests.phy_oracle import OracleMedium, reference_pairs

#: Range 100 m (= the grid's cell edge), fringe from 70 m.
RANGE_M = 100.0
FRINGE_M = 70.0


def _model():
    return PropagationModel(range_m=RANGE_M, base_loss=0.2, edge_start=0.7)


def _exact(row):
    """A row with its floats as hex strings, so ``==`` means bit-identical."""
    return [(seq, radio, base.hex(), rssi.hex()) for seq, radio, base, rssi in row]


def assert_rows_match_reference(medium):
    """Every static radio's table row equals its per-sender reference row.

    Returns the number of rows checked.
    """
    members = {}
    for radio in medium._radios:
        if radio._static:
            members.setdefault(radio.channel, []).append(radio)
    checked = 0
    for channel, radios in members.items():
        table = medium._pair_tables.get(channel)
        if table is None:
            table = medium._fill_pairs(channel)
        assert set(table) == set(radios)
        for radio in radios:
            row = table[radio]
            assert [seq for seq, *_ in row] == sorted({seq for seq, *_ in row})
            assert _exact(row) == _exact(reference_pairs(medium, radio))
            checked += 1
    return checked


def _static(medium, x, y, channel, name):
    return Radio(medium, StaticMobility(Point(x, y)), channel, name=name, address=name)


# -- generated layouts --------------------------------------------------------


#: Coordinates that put pairs at distance 0 (shared values), exactly at
#: the fringe start (0/70, 42/56) and at range (0/100, 60/80), one ulp
#: either side of range, on cell edges (multiples of 100), and below 0.
_SPECIAL = [
    0.0, -0.0, 30.0, -30.0, 42.0, 56.0, 60.0, 70.0, -70.0, 80.0,
    math.nextafter(RANGE_M, 0.0), RANGE_M, math.nextafter(RANGE_M, 200.0),
    -RANGE_M, 170.0, 200.0, -200.0, 300.0,
]

_coordinate = st.one_of(
    st.sampled_from(_SPECIAL),
    st.integers(-8, 8).map(lambda k: k * 35.0),
    st.floats(-350.0, 350.0, allow_nan=False, allow_infinity=False),
)

_layouts = st.lists(
    st.tuples(_coordinate, _coordinate, st.sampled_from([1, 1, 6, 11, 3])),
    min_size=1,
    max_size=24,
)


def _beacon_round(medium_class, layout):
    """One beacon from each radio of ``layout``; rows checked, outcome."""
    sim = Simulator()
    medium = medium_class(sim, _model(), RandomStreams(4), adjacent_channel_loss=0.25)
    radios = [_static(medium, x, y, channel, f"r{i}") for i, (x, y, channel) in enumerate(layout)]
    checked = assert_rows_match_reference(medium)
    log = []
    for radio in radios:
        radio.on_receive = lambda frame, radio=radio: log.append(
            (sim.now, radio.name, frame.src, radio.last_rssi)
        )
    for i, radio in enumerate(radios):
        sim.schedule(0.001 * (i % 5), radio.transmit, frames.beacon(radio.name))
    sim.run()
    counters = [(r.name, r.frames_received, r.frames_lost) for r in radios]
    return checked, (log, counters, medium._rng.random())


@settings(max_examples=150, deadline=None)
@given(_layouts)
@example([(0.0, 0.0, 1), (0.0, 0.0, 1), (RANGE_M, 0.0, 1), (FRINGE_M, 0.0, 1),
          (60.0, 80.0, 1), (42.0, 56.0, 1), (-RANGE_M, -0.0, 1), (-0.0, -RANGE_M, 6)])
@example([(99.0, 5.0, 1), (101.0, 5.0, 1), (-1.0, -99.0, 1), (0.0, 1.0, 6), (-301.0, 0.0, 1)])
def test_generated_layouts_match_reference(layout):
    checked, outcome = _beacon_round(Medium, layout)
    assert checked == len(layout)
    assert outcome == _beacon_round(OracleMedium, layout)[1]


def test_boundary_distances_are_kept():
    # Distance 0, exactly the fringe start and exactly range are in
    # range (the reference scan draws loss for them); one ulp past
    # range is not.
    sim = Simulator()
    medium = Medium(sim, _model(), RandomStreams(1))
    sender = _static(medium, 0.0, 0.0, 1, "s")
    twin = _static(medium, 0.0, 0.0, 1, "twin")
    fringe = _static(medium, 42.0, 56.0, 1, "fringe")
    edge = _static(medium, 60.0, 80.0, 1, "edge")
    _static(medium, math.nextafter(RANGE_M, 200.0), 0.0, 1, "past")
    row = medium._fill_pairs(1)[sender]
    assert [radio for _, radio, _, _ in row] == [twin, fringe, edge]
    model = medium.propagation
    assert [base for _, _, base, _ in row] == [model.base_loss, model.base_loss, 1.0]
    assert [rssi for _, _, _, rssi in row] == [
        medium.rssi_at(0.0), medium.rssi_at(FRINGE_M), medium.rssi_at(RANGE_M)
    ]
    assert assert_rows_match_reference(medium) == 5


# -- membership changes while frames are in flight ------------------------------


def _run(medium_class, setup, seed=5):
    """Run ``setup``'s world; rows are checked at every ``check`` event.

    ``setup(sim, medium, check)`` places the radios and schedules the
    traffic and changes. Returns the rows checked and the outcome.
    """
    sim = Simulator()
    medium = medium_class(sim, _model(), RandomStreams(seed), adjacent_channel_loss=0.25)
    checked = []

    def check(*mediums):
        for each in mediums or (medium,):
            checked.append(assert_rows_match_reference(each))

    radios, mediums = setup(sim, medium, check)
    log = []
    for radio in radios:
        radio.on_receive = lambda frame, radio=radio: log.append(
            (sim.now, radio.name, frame.src, radio.last_rssi)
        )
    sim.run()
    counters = [
        (r.name, r.channel, r.frames_sent, r.frames_received, r.frames_lost) for r in radios
    ]
    return checked, (log, counters, [m._rng.random() for m in mediums])


def _compare(setup):
    checked, outcome = _run(Medium, setup)
    assert outcome == _run(OracleMedium, setup)[1]
    assert checked and all(checked)
    assert outcome[0]  # something was delivered
    return outcome


def _beacons(sim, radio, start, period, count):
    for k in range(count):
        sim.schedule_at(start + period * k, lambda radio=radio: radio.transmit(
            frames.beacon(radio.name)))


def _ring(medium, channel, prefix, cx, cy, count=6):
    """Static radios around ``(cx, cy)`` at 35–95 m: flat floor and fringe."""
    return [
        _static(
            medium,
            cx + (35.0 + 12.0 * k) * math.cos(k),
            cy + (35.0 + 12.0 * k) * math.sin(k),
            channel,
            f"{prefix}{k}",
        )
        for k in range(count)
    ]


def test_static_client_retuning():
    # The fig9 pattern: a static client hops between two channels,
    # broadcasting and unicasting on each, while the APs beacon. Every
    # retune drops both channels' static tables.
    def setup(sim, medium, check):
        aps = _ring(medium, 1, "a", 0.0, 0.0) + _ring(medium, 6, "b", 20.0, 0.0)
        client = _static(medium, 10.0, 5.0, 1, "client")
        for ap in aps:
            _beacons(sim, ap, 0.003 * aps.index(ap), 0.1, 12)
        for k in range(24):
            channel = 6 if k % 2 == 0 else 1
            peer = "b0" if channel == 6 else "a0"
            at = 0.05 * k + 0.02
            sim.schedule_at(at, client.set_channel, channel)
            sim.schedule_at(at, check)
            sim.schedule_at(at, client.transmit, frames.beacon("client"))
            sim.schedule_at(at, client.transmit, frames.data_frame("client", peer, None, 400))
        return aps + [client], [medium]

    _compare(setup)


def test_static_join_and_leave_mid_run():
    def setup(sim, medium, check):
        radios = _ring(medium, 1, "a", 0.0, 0.0, count=8) + _ring(medium, 6, "b", 0.0, 0.0)
        for radio in radios:
            _beacons(sim, radio, 0.002 * radios.index(radio), 0.1, 15)
        late = _static(medium, 5.0, -5.0, 1, "late")
        medium.unregister(late)
        _beacons(sim, late, 0.551, 0.1, 5)

        def join():
            medium.register(late)
            check()

        def leave():
            medium.unregister(radios[3])
            check()

        def rejoin():
            radios[3].mobility = StaticMobility(Point(-60.0, 10.0))
            medium.register(radios[3])
            check()

        sim.schedule_at(0.33, check)
        sim.schedule_at(0.55, join)
        sim.schedule_at(0.85, leave)
        sim.schedule_at(1.15, rejoin)
        sim.schedule_at(1.6, check)
        return radios + [late], [medium]

    log = _compare(setup)[0]
    assert any(name == "late" for _, name, _, _ in log)
    assert any(src == "late" for _, _, src, _ in log)


def test_sender_leaves_between_transmit_and_completion():
    # Frames queue behind one another on the busy channel; their
    # senders unregister or retune before the frames complete, so the
    # completions find no row for the sender and walk the snapshot.
    def setup(sim, medium, check):
        radios = _ring(medium, 1, "a", 0.0, 0.0, count=8)
        gone, moved = radios[0], radios[1]

        def burst():
            for radio in radios:
                radio.transmit(frames.beacon(radio.name))
            medium.unregister(gone)
            moved.set_channel(6)
            check()

        def back():
            medium.register(gone)
            moved.set_channel(1)
            check()

        sim.schedule_at(0.1, burst)
        sim.schedule_at(0.5, back)
        sim.schedule_at(0.6, burst)
        return radios, [medium]

    log = _compare(setup)[0]
    heard = {src for _, _, src, _ in log}
    assert {"a0", "a1"} <= heard  # their in-flight frames were delivered


def test_partition_handoff():
    # A static radio moves from one medium to another, as
    # ``MediumPartitions`` hands a radio off, with its own frame still
    # queued on the old medium.
    def setup(sim, medium, check):
        other = type(medium)(
            sim, _model(), RandomStreams(9), adjacent_channel_loss=0.25, stream_name="phy-b"
        )
        here = _ring(medium, 1, "a", 0.0, 0.0)
        there = _ring(other, 1, "b", 0.0, 0.0)
        mover = _static(medium, 10.0, 10.0, 1, "mover")
        radios = here + there + [mover]
        for radio in radios:
            _beacons(sim, radio, 0.002 * radios.index(radio), 0.1, 10)

        def handoff():
            for radio in here[:3]:
                radio.transmit(frames.beacon(radio.name))
            mover.transmit(frames.beacon("mover"))
            medium.unregister(mover)
            mover.medium = other
            other.register(mover)
            check(medium, other)

        sim.schedule_at(0.45, handoff)
        sim.schedule_at(0.95, check, medium, other)
        return radios, [medium, other]

    _compare(setup)


# -- the full metro-core build ------------------------------------------------------


@pytest.mark.slow
def test_metro_core_rows_match_reference():
    from repro.scenario.build import build
    from repro.scenario.registry import scenario

    world = build(scenario("metro-core"))
    checked = sum(assert_rows_match_reference(m) for m in world.partitions.mediums)
    assert checked == len(world.aps) == 10_960
