"""Unit tests for the PHY layer: channels, propagation, radio, medium."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mac import frames
from repro.phy.channels import (
    DEFAULT_DATA_RATE_BPS,
    ORTHOGONAL_CHANNELS,
    channel_frequency_mhz,
    channels_interfere,
    frame_airtime,
)
from repro.phy.propagation import PropagationModel
from repro.phy.radio import Medium, Radio
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.world.geometry import Point
from repro.world.mobility import StaticMobility


class TestChannels:
    def test_orthogonal_channels_do_not_interfere(self):
        for a in ORTHOGONAL_CHANNELS:
            for b in ORTHOGONAL_CHANNELS:
                if a != b:
                    assert not channels_interfere(a, b)

    def test_adjacent_channels_interfere(self):
        assert channels_interfere(1, 2)
        assert channels_interfere(6, 9)

    def test_channel_interferes_with_itself(self):
        assert channels_interfere(6, 6)

    def test_invalid_channel_rejected(self):
        with pytest.raises(ValueError):
            channels_interfere(0, 6)
        with pytest.raises(ValueError):
            channel_frequency_mhz(15)

    def test_frequencies(self):
        assert channel_frequency_mhz(1) == 2412.0
        assert channel_frequency_mhz(6) == 2437.0
        assert channel_frequency_mhz(11) == 2462.0
        assert channel_frequency_mhz(14) == 2484.0

    def test_airtime_includes_preamble(self):
        assert frame_airtime(0, 1e6) == pytest.approx(192e-6)

    def test_airtime_scales_with_size(self):
        assert frame_airtime(1000, 1e6) == pytest.approx(192e-6 + 8e-3)

    def test_airtime_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            frame_airtime(-1, 1e6)
        with pytest.raises(ValueError):
            frame_airtime(10, 0)

    @given(st.integers(0, 10_000), st.sampled_from([1e6, 2e6, 11e6, 24e6]))
    def test_airtime_monotone_in_size(self, size, rate):
        assert frame_airtime(size + 1, rate) > frame_airtime(size, rate)


class TestPropagation:
    def test_in_range_boundary(self):
        model = PropagationModel(range_m=100.0)
        assert model.in_range(100.0)
        assert not model.in_range(100.1)

    def test_loss_is_floor_in_core(self):
        model = PropagationModel(range_m=100.0, base_loss=0.1, edge_start=0.7)
        assert model.loss_probability(10.0) == 0.1
        assert model.loss_probability(70.0) == 0.1

    def test_loss_reaches_one_at_range_edge(self):
        model = PropagationModel(range_m=100.0, base_loss=0.1, edge_start=0.7)
        assert model.loss_probability(100.0) == pytest.approx(1.0)

    def test_loss_beyond_range_is_certain(self):
        model = PropagationModel(range_m=100.0)
        assert model.loss_probability(150.0) == 1.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            PropagationModel(base_loss=1.0)
        with pytest.raises(ValueError):
            PropagationModel(edge_start=0.0)
        with pytest.raises(ValueError):
            PropagationModel(range_m=0.0)

    @given(st.floats(0.0, 99.0))
    def test_loss_monotone_with_distance(self, dist):
        model = PropagationModel(range_m=100.0, base_loss=0.05, edge_start=0.5)
        assert model.loss_probability(dist) <= model.loss_probability(dist + 1.0) + 1e-12

    @given(st.floats(0.0, 200.0))
    def test_loss_is_probability(self, dist):
        model = PropagationModel(range_m=100.0)
        assert 0.0 <= model.loss_probability(dist) <= 1.0


def _world(loss=0.0, range_m=100.0):
    sim = Simulator()
    medium = Medium(
        sim,
        PropagationModel(range_m=range_m, base_loss=loss, edge_start=0.99),
        RandomStreams(1),
    )
    return sim, medium


def _radio(medium, x, channel=1, name="r"):
    return Radio(medium, StaticMobility(Point(x, 0.0)), channel, name=name, address=name)


class TestMedium:
    def test_unicast_delivery_same_channel(self):
        sim, medium = _world()
        a = _radio(medium, 0, name="a")
        b = _radio(medium, 10, name="b")
        got = []
        b.on_receive = got.append
        a.transmit(frames.mgmt_frame(frames.FrameType.AUTH_REQUEST, "a", "b"))
        sim.run()
        assert len(got) == 1

    def test_no_delivery_across_channels(self):
        sim, medium = _world()
        a = _radio(medium, 0, channel=1, name="a")
        b = _radio(medium, 10, channel=6, name="b")
        got = []
        b.on_receive = got.append
        a.transmit(frames.mgmt_frame(frames.FrameType.AUTH_REQUEST, "a", "b"))
        sim.run()
        assert got == []

    def test_no_delivery_out_of_range(self):
        sim, medium = _world(range_m=50.0)
        a = _radio(medium, 0, name="a")
        b = _radio(medium, 100, name="b")
        got = []
        b.on_receive = got.append
        a.transmit(frames.mgmt_frame(frames.FrameType.AUTH_REQUEST, "a", "b"))
        sim.run()
        assert got == []

    def test_broadcast_reaches_all_in_range(self):
        sim, medium = _world()
        a = _radio(medium, 0, name="a")
        receivers = [_radio(medium, 5 + i, name=f"b{i}") for i in range(3)]
        counts = []
        for radio in receivers:
            got = []
            radio.on_receive = got.append
            counts.append(got)
        a.transmit(frames.beacon("a"))
        sim.run()
        assert all(len(got) == 1 for got in counts)

    def test_broadcast_not_delivered_to_sender(self):
        sim, medium = _world()
        a = _radio(medium, 0, name="a")
        got = []
        a.on_receive = got.append
        a.transmit(frames.beacon("a"))
        sim.run()
        assert got == []

    def test_deaf_radio_cannot_send(self):
        sim, medium = _world()
        a = _radio(medium, 0, name="a")
        a.go_deaf(1.0)
        assert a.transmit(frames.beacon("a")) is False

    def test_deaf_radio_misses_frames(self):
        sim, medium = _world()
        a = _radio(medium, 0, name="a")
        b = _radio(medium, 10, name="b")
        b.go_deaf(10.0)
        got = []
        b.on_receive = got.append
        a.transmit(frames.beacon("a"))
        sim.run()
        assert got == []

    def test_channel_serialisation_orders_frames(self):
        sim, medium = _world()
        a = _radio(medium, 0, name="a")
        b = _radio(medium, 10, name="b")
        order = []
        b.on_receive = lambda f: order.append(f.payload)
        a.transmit(frames.data_frame("a", "b", "first", 1000))
        a.transmit(frames.data_frame("a", "b", "second", 1000))
        sim.run()
        assert order == ["first", "second"]

    def test_channel_busy_until_advances(self):
        sim, medium = _world()
        a = _radio(medium, 0, name="a")
        frame = frames.data_frame("a", "b", None, 1000)
        a.transmit(frame)
        assert medium.channel_busy_until(1) > 0.0

    def test_arq_recovers_from_loss(self):
        """With h=30% and 4 attempts, most unicast frames survive."""
        sim, medium = _world(loss=0.30)
        a = _radio(medium, 0, name="a")
        b = _radio(medium, 10, name="b")
        got = []
        b.on_receive = got.append
        for _ in range(100):
            a.transmit(frames.data_frame("a", "b", None, 100))
        sim.run()
        assert len(got) > 95

    def test_broadcast_gets_no_arq(self):
        sim, medium = _world(loss=0.5)
        a = _radio(medium, 0, name="a")
        b = _radio(medium, 10, name="b")
        got = []
        b.on_receive = got.append
        for _ in range(200):
            a.transmit(frames.beacon("a"))
        sim.run()
        assert 50 < len(got) < 150  # ~50% delivery, no retries

    def test_tx_failure_reported_when_target_gone(self):
        sim, medium = _world()
        a = _radio(medium, 0, name="a")
        b = _radio(medium, 10, channel=6, name="b")  # wrong channel
        failures = []
        a.on_unicast_failure = failures.append
        a.transmit(frames.data_frame("a", "b", None, 100))
        sim.run()
        assert len(failures) == 1

    def test_rssi_decreases_with_distance(self):
        sim, medium = _world()
        a = _radio(medium, 0, name="a")
        near = _radio(medium, 10, name="near")
        far = _radio(medium, 80, name="far")
        rssi = {}
        near.on_receive = lambda f: rssi.setdefault("near", near.last_rssi)
        far.on_receive = lambda f: rssi.setdefault("far", far.last_rssi)
        a.transmit(frames.beacon("a"))
        sim.run()
        assert rssi["near"] > rssi["far"]

    def test_suggest_rate_degrades_with_distance(self):
        sim, medium = _world()
        a = _radio(medium, 0, name="a")
        near = _radio(medium, 20, name="near")
        far = _radio(medium, 90, name="far")
        assert medium.suggest_rate(a, "near") == DEFAULT_DATA_RATE_BPS
        assert medium.suggest_rate(a, "far") < medium.suggest_rate(a, "near")

    def test_suggest_rate_unknown_target_uses_top_rate(self):
        sim, medium = _world()
        a = _radio(medium, 0, name="a")
        assert medium.suggest_rate(a, "ghost") == DEFAULT_DATA_RATE_BPS

    def test_transmit_applies_auto_rate_to_data(self):
        sim, medium = _world()
        a = _radio(medium, 0, name="a")
        far = _radio(medium, 90, name="far")
        frame = frames.data_frame("a", "far", None, 1000)
        a.transmit(frame)
        assert frame.rate_bps < DEFAULT_DATA_RATE_BPS

    def test_unregister_removes_radio(self):
        sim, medium = _world()
        a = _radio(medium, 0, name="a")
        b = _radio(medium, 10, name="b")
        got = []
        b.on_receive = got.append
        medium.unregister(b)
        a.transmit(frames.beacon("a"))
        sim.run()
        assert got == []

    def test_radios_on_channel(self):
        sim, medium = _world()
        _radio(medium, 0, channel=1, name="a")
        _radio(medium, 5, channel=6, name="b")
        _radio(medium, 9, channel=1, name="c")
        assert {r.address for r in medium.radios_on_channel(1)} == {"a", "c"}


class TestMediumIndexes:
    """The indexed-medium determinism contract (DESIGN.md §6).

    Delivery iterates the per-channel index in *registration* order no
    matter how radios retune, unregister, or re-register — that order
    is the per-receiver RNG draw order, so it is what keeps experiment
    digests byte-identical to the historical full-registry scans.
    """

    def test_channel_index_keeps_registration_order(self):
        sim, medium = _world()
        a = _radio(medium, 0, channel=1, name="a")
        b = _radio(medium, 5, channel=6, name="b")
        c = _radio(medium, 9, channel=1, name="c")
        assert [r.address for r in medium.radios_on_channel(1)] == ["a", "c"]
        # b retunes onto 1: registered between a and c, so it must land
        # between them, not at the end.
        b.set_channel(1)
        assert [r.address for r in medium.radios_on_channel(1)] == ["a", "b", "c"]
        assert medium.radios_on_channel(6) == []

    def test_register_retune_unregister_reregister_order(self):
        sim, medium = _world()
        a = _radio(medium, 0, channel=1, name="a")
        b = _radio(medium, 5, channel=1, name="b")
        c = _radio(medium, 9, channel=6, name="c")
        c.set_channel(1)  # latest registrant: appends
        assert [r.address for r in medium.radios_on_channel(1)] == ["a", "b", "c"]
        medium.unregister(a)
        assert [r.address for r in medium.radios_on_channel(1)] == ["b", "c"]
        # Re-registering is a *new* registration: a re-queues last.
        medium.register(a)
        assert [r.address for r in medium.radios_on_channel(1)] == ["b", "c", "a"]

    def test_first_with_address_across_unregister_and_reregister(self):
        sim, medium = _world()
        sender = _radio(medium, 0, name="s")
        a, b, c = (
            Radio(medium, StaticMobility(Point(x, 0.0)), 1, name=name, address="dup")
            for x, name in ((5, "a"), (9, "b"), (12, "c"))
        )
        assert medium._by_address["dup"] == (a, b, c)
        assert medium._first_with_address("dup", sender) is a
        assert medium._first_with_address("dup", a) is b
        medium.unregister(a)
        assert medium._first_with_address("dup", sender) is b
        # Re-registering is a new registration: a now comes last.
        medium.register(a)
        assert medium._by_address["dup"] == (b, c, a)
        assert medium._first_with_address("dup", b) is c
        medium.unregister(c)
        medium.unregister(c)  # a second unregister is a no-op
        assert medium._first_with_address("dup", b) is a
        medium.unregister(a)
        medium.unregister(b)
        assert "dup" not in medium._by_address
        assert medium._first_with_address("dup", sender) is None

    def test_radio_has_no_instance_dict(self):
        sim, medium = _world()
        radio = _radio(medium, 0)
        assert not hasattr(radio, "__dict__")
        with pytest.raises(AttributeError):
            radio.extra = 1

    def test_unregistered_radio_may_retune_freely(self):
        sim, medium = _world()
        a = _radio(medium, 0, channel=1, name="a")
        medium.unregister(a)
        a.set_channel(6)  # must not corrupt any index
        assert medium.radios_on_channel(6) == []
        medium.register(a)
        assert [r.address for r in medium.radios_on_channel(6)] == ["a"]
        assert medium.radios_on_channel(1) == []

    def test_unicast_follows_address_index_across_unregister(self):
        sim, medium = _world()
        a = _radio(medium, 0, name="a")
        b1 = _radio(medium, 10, name="b")
        b2 = Radio(medium, StaticMobility(Point(20, 0.0)), 1, name="b2", address="b")
        # Duplicate address: the first-registered holder wins, as the
        # historical linear scan did.
        assert medium._first_with_address("b", a) is b1
        medium.unregister(b1)
        assert medium._first_with_address("b", a) is b2
        assert medium._first_with_address("a", a) is None  # never the sender

    def test_fanout_snapshot_invalidated_by_registration(self):
        sim, medium = _world()
        a = _radio(medium, 0, name="a")
        b = _radio(medium, 10, name="b")
        got = []
        b.on_receive = got.append
        a.transmit(frames.beacon("a"))
        sim.run()
        assert len(got) == 1
        # A radio registered *after* a fan-out cached the snapshot must
        # be seen by the next fan-out.
        c = _radio(medium, 20, name="c")
        c.on_receive = got.append
        a.transmit(frames.beacon("a"))
        sim.run()
        assert len(got) == 3

    def test_fanout_snapshot_invalidated_by_retune(self):
        sim, medium = _world()
        a = _radio(medium, 0, name="a")
        b = _radio(medium, 10, name="b")
        got = []
        b.on_receive = got.append
        a.transmit(frames.beacon("a"))
        sim.run()
        assert len(got) == 1
        b.set_channel(6)
        a.transmit(frames.beacon("a"))
        sim.run()
        assert len(got) == 1  # off-channel now
        b.set_channel(1)
        a.transmit(frames.beacon("a"))
        sim.run()
        assert len(got) == 2

    def test_interference_sees_same_timestamp_busy_change(self):
        sim, medium = _world()
        r3 = _radio(medium, 0, channel=3, name="r3")
        r6 = _radio(medium, 5, channel=6, name="r6")
        r3.transmit(frames.beacon("r3"))  # channel 3 busy at t=0
        partial = medium.interference_loss(5)
        assert partial > 0.0
        # Same sim.now, new busy channel: the loss must include it —
        # channel 6 overlaps 5 too.
        r6.transmit(frames.beacon("r6"))
        combined = medium.interference_loss(5)
        assert combined > partial

    def test_interference_sees_busy_expiry(self):
        sim, medium = _world()
        r3 = _radio(medium, 0, channel=3, name="r3")
        _radio(medium, 5, channel=1, name="r1")
        r3.transmit(frames.beacon("r3"))
        assert medium.interference_loss(1) > 0.0
        sim.run(until=10.0)  # transmission long over
        assert medium.interference_loss(1) == 0.0

    def test_interference_fast_path_sees_direct_busy_writes(self):
        sim, medium = _world()
        # Tests (and diagnostics) poke the busy map directly; the
        # prone-channel fast path must still observe the new key.
        assert medium.interference_loss(1) == 0.0
        medium._channel_busy_until[3] = 1.0
        assert medium.interference_loss(1) > 0.0

    def test_static_position_pinned_mobile_position_cached(self):
        from repro.world.mobility import ConstantVelocityMobility

        sim, medium = _world()
        ap = _radio(medium, 42, name="ap")
        car = Radio(
            medium,
            ConstantVelocityMobility(Point(0, 0), Point(10, 0)),
            1,
            name="car",
        )
        assert ap._static and not car._static
        assert ap.position() == Point(42, 0.0)
        first = car.position()
        assert car.position() is first  # memoised within the instant
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert car.position() == Point(10, 0)
        assert ap.position() == Point(42, 0.0)
