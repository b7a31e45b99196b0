"""Cross-cutting property-based tests on core invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.join_model import JoinModelParams, join_success_probability
from repro.net.tcp import TcpConfig, TcpReceiver, TcpSegment, TcpSender
from repro.sim.engine import Simulator
from repro.sim.timers import Timer


class TestEngineProperties:
    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(st.lists(st.tuples(st.floats(0, 50), st.booleans()), max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_cancelled_events_never_fire(self, entries):
        sim = Simulator()
        fired = []
        handles = []
        for delay, cancel in entries:
            handle = sim.schedule_cancellable(delay, lambda i=len(handles): fired.append(i))
            handles.append((handle, cancel))
        for handle, cancel in handles:
            if cancel:
                handle.cancel()
        sim.run()
        expected = sum(1 for _h, cancel in handles if not cancel)
        assert len(fired) == expected

    @given(st.lists(st.floats(0.01, 5.0), min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_timer_restart_chain_fires_once(self, delays):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        for delay in delays:
            timer.start(delay)  # every restart supersedes the previous
        sim.run()
        assert len(fired) == 1
        assert fired[0] == pytest.approx(delays[-1])


class TestTcpProperties:
    @given(st.integers(0, 2**31), st.data())
    @settings(max_examples=40, deadline=None)
    def test_sender_sequence_invariants_under_random_acks(self, seed, data):
        """However ACKs arrive (valid cumulative values), the sender
        never regresses: snd_una ≤ snd_nxt, cwnd ≥ 1."""
        sim = Simulator()
        sent = []
        sender = TcpSender(sim, 1, send=sent.append, config=TcpConfig())
        sender.start()
        rng = random.Random(seed)
        for _ in range(30):
            sim.run(until=sim.now + rng.uniform(0.01, 0.5))
            if sender.snd_nxt > sender.snd_una and rng.random() < 0.8:
                ack_value = data.draw(
                    st.integers(sender.snd_una, sender.snd_nxt)
                )
                sender.on_ack(TcpSegment(1, 0, 0, is_ack=True, ack=ack_value))
            assert sender.snd_una <= sender.snd_nxt
            assert sender.cwnd >= 1.0
            assert sender.rto <= sender.config.max_rto + 1e-9
        sender.stop()

    @given(st.lists(st.integers(0, 19), min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_receiver_never_delivers_duplicates(self, arrivals):
        """Segments may arrive repeated and reordered; delivered byte
        count equals the span of the contiguous prefix received."""
        sim = Simulator()
        receiver = TcpReceiver(sim, 1, send_ack=lambda a: None)
        seen = set()
        for index in arrivals:
            receiver.on_segment(TcpSegment(1, index * 100, 100))
            seen.add(index)
        contiguous = 0
        while contiguous in seen:
            contiguous += 1
        assert receiver.bytes_delivered == contiguous * 100
        assert receiver.rcv_nxt == contiguous * 100


class TestModelProperties:
    @given(
        st.floats(0.05, 1.0),
        st.floats(0.5, 10.0),
        st.floats(0.0, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_join_probability_monotone_in_fraction(self, fraction, beta_max, loss):
        """More time on the channel never hurts (at matched rounds)."""
        params = JoinModelParams(beta_max=max(beta_max, 0.5), loss_rate=loss)
        smaller = join_success_probability(params, fraction * 0.5, 4.0)
        larger = join_success_probability(params, fraction, 4.0)
        assert larger >= smaller - 1e-9

    @given(st.floats(0.05, 1.0), st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_join_probability_is_probability(self, fraction, rounds):
        params = JoinModelParams()
        value = join_success_probability(params, fraction, rounds * params.period)
        assert 0.0 <= value <= 1.0
