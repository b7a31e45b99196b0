"""Unit tests for the access point MAC entity."""

import hashlib
import random

from repro.mac import frames
from repro.mac.ap import AccessPoint, ApConfig
from repro.mac.frames import FrameType
from repro.phy.propagation import PropagationModel
from repro.phy.radio import Medium, Radio
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.world.geometry import Point
from repro.world.mobility import StaticMobility


def make_world(loss=0.0):
    sim = Simulator()
    medium = Medium(
        sim,
        PropagationModel(range_m=100.0, base_loss=loss, edge_start=0.99),
        RandomStreams(3),
    )
    return sim, medium


def make_ap(sim, medium, name="ap", channel=1, config=None):
    return AccessPoint(sim, medium, name, channel, Point(10, 0), config=config)


def make_client(medium, name="cli", channel=1):
    return Radio(medium, StaticMobility(Point(0, 0)), channel, name=name, address=name)


def join(sim, ap, client):
    """Drive the auth+assoc handshake to completion.

    Bounded runs: a started AP beacons forever, so an unbounded
    ``sim.run()`` would never drain the event heap.
    """
    client.transmit(frames.mgmt_frame(FrameType.AUTH_REQUEST, client.address, ap.name))
    sim.run(until=sim.now + 2.0)
    client.transmit(frames.mgmt_frame(FrameType.ASSOC_REQUEST, client.address, ap.name))
    sim.run(until=sim.now + 2.0)


class TestBeaconing:
    def test_beacons_arrive_periodically(self):
        sim, medium = make_world()
        ap = make_ap(sim, medium)
        client = make_client(medium)
        beacons = []
        client.on_receive = (
            lambda f: beacons.append(sim.now) if f.type == FrameType.BEACON else None
        )
        ap.start()
        sim.run(until=1.05)
        # Desynchronised start phase: 10 or 11 beacons in 1.05 s.
        assert len(beacons) in (10, 11)
        intervals = [b - a for a, b in zip(beacons, beacons[1:])]
        assert all(abs(i - 0.1) < 1e-6 for i in intervals)

    def test_stop_halts_beacons(self):
        sim, medium = make_world()
        ap = make_ap(sim, medium)
        client = make_client(medium)
        beacons = []
        client.on_receive = lambda f: beacons.append(f) if f.type == FrameType.BEACON else None
        ap.start()
        sim.run(until=0.55)
        ap.stop()
        count = len(beacons)
        sim.run(until=2.0)
        assert len(beacons) == count

    def test_beacon_payload_carries_channel(self):
        sim, medium = make_world()
        ap = make_ap(sim, medium, channel=6)
        ap.radio.set_channel(6)
        client = make_client(medium, channel=6)
        seen = []
        client.on_receive = lambda f: seen.append(f.payload)
        ap.start()
        sim.run(until=0.3)
        assert seen and all(p["channel"] == 6 for p in seen)

    def test_start_idempotent(self):
        sim, medium = make_world()
        ap = make_ap(sim, medium)
        ap.start()
        ap.start()
        client = make_client(medium)
        beacons = []
        client.on_receive = lambda f: beacons.append(f)
        sim.run(until=0.35)
        # One beacon chain (3–4 beacons depending on the random phase),
        # not a doubled one (~7).
        assert len(beacons) in (3, 4)

    def test_stop_ends_both_chains(self):
        """An outage AP goes quiet: no beacon tick or ageing pass re-arms."""
        sim, medium = make_world()
        ap = make_ap(sim, medium, config=ApConfig(client_timeout=1.0))
        ap.start()
        sim.run(until=1.75)  # past the first ageing pass, at t=1
        sent = ap.radio.frames_sent
        ap.stop()
        # Only the pending tick and pass remain; each finds the AP
        # stopped and ends its chain, so nothing is left to run.
        assert sim.pending_events == 2
        sim.run(until=10.0)
        assert sim.pending_events == 0
        assert ap.radio.frames_sent == sent

    def test_restart_before_the_pending_tick_keeps_one_chain_each(self):
        sim, medium = make_world()
        ap = make_ap(sim, medium, config=ApConfig(client_timeout=1.0))
        client = make_client(medium)
        beacons = []
        client.on_receive = lambda f: beacons.append(sim.now)
        ap.start()
        sim.run(until=0.55)
        ap.stop()
        ap.start()  # the tick due within 0.1 s is still pending
        assert sim.pending_events == 2
        sim.run(until=3.55)
        assert sim.pending_events == 2  # one beacon tick, one ageing pass
        intervals = [b - a for a, b in zip(beacons, beacons[1:])]
        assert len(beacons) in (35, 36) and all(abs(i - 0.1) < 1e-6 for i in intervals)

    def test_restart_after_the_chains_ended_starts_new_ones(self):
        sim, medium = make_world()
        ap = make_ap(sim, medium, config=ApConfig(client_timeout=1.0))
        ap.start()
        sim.run(until=0.55)
        ap.stop()
        sim.run(until=2.0)
        assert sim.pending_events == 0
        sent = ap.radio.frames_sent
        ap.start()
        sim.run(until=sim.now + 2.0)
        assert sim.pending_events == 2
        assert ap.radio.frames_sent - sent in (19, 20, 21)


class TestRng:
    def test_fallback_seed_is_sha256_of_name(self):
        # Without an rng the AP seeds from a digest of its name, never
        # from the per-process salted hash(), so the first beacon phase
        # is the same in every process.
        sim, medium = make_world()
        ap = make_ap(sim, medium, name="ap-17")
        seed = int.from_bytes(hashlib.sha256(b"ap-17").digest()[:8], "big")
        expected = random.Random(seed).uniform(0, ap.config.beacon_interval)
        ap.start()
        assert sim.step()
        assert sim.now == expected


class TestJoinResponder:
    def test_probe_gets_response(self):
        sim, medium = make_world()
        ap = make_ap(sim, medium)
        client = make_client(medium)
        responses = []
        client.on_receive = lambda f: responses.append(f.type)
        client.transmit(
            frames.mgmt_frame(FrameType.PROBE_REQUEST, "cli", frames.BROADCAST)
        )
        sim.run()
        assert FrameType.PROBE_RESPONSE in responses

    def test_auth_then_assoc_succeeds(self):
        sim, medium = make_world()
        ap = make_ap(sim, medium)
        client = make_client(medium)
        join(sim, ap, client)
        assert "cli" in ap.associated

    def test_assoc_without_auth_ignored(self):
        sim, medium = make_world()
        ap = make_ap(sim, medium)
        client = make_client(medium)
        client.transmit(frames.mgmt_frame(FrameType.ASSOC_REQUEST, "cli", ap.name))
        sim.run()
        assert "cli" not in ap.associated

    def test_assoc_callback_invoked(self):
        sim, medium = make_world()
        ap = make_ap(sim, medium)
        client = make_client(medium)
        joined = []
        ap.on_associated = joined.append
        join(sim, ap, client)
        assert joined == ["cli"]

    def test_assoc_delay_within_configured_bounds(self):
        sim, medium = make_world()
        config = ApConfig(assoc_delay_min=0.05, assoc_delay_max=0.05)
        ap = make_ap(sim, medium, config=config)
        client = make_client(medium)
        times = []
        client.on_receive = (
            lambda f: times.append(sim.now) if f.type == FrameType.ASSOC_RESPONSE else None
        )
        join(sim, ap, client)
        assert times and times[0] >= 0.05

    def test_deauth_drops_association(self):
        sim, medium = make_world()
        ap = make_ap(sim, medium)
        client = make_client(medium)
        join(sim, ap, client)
        client.transmit(frames.mgmt_frame(FrameType.DEAUTH, "cli", ap.name))
        sim.run()
        assert "cli" not in ap.associated

    def test_frames_for_other_ap_ignored(self):
        sim, medium = make_world()
        ap = make_ap(sim, medium)
        client = make_client(medium)
        client.transmit(frames.mgmt_frame(FrameType.AUTH_REQUEST, "cli", "other-ap"))
        sim.run()
        assert "cli" not in ap.authenticated


class TestPsm:
    def _associated(self):
        sim, medium = make_world()
        ap = make_ap(sim, medium)
        client = make_client(medium)
        join(sim, ap, client)
        return sim, medium, ap, client

    def test_psm_null_sets_mode(self):
        sim, _, ap, client = self._associated()
        client.transmit(frames.null_data("cli", ap.name, pm=True))
        sim.run()
        assert ap.client_in_psm("cli")

    def test_downlink_buffered_in_psm(self):
        sim, _, ap, client = self._associated()
        client.transmit(frames.null_data("cli", ap.name, pm=True))
        sim.run()
        got = []
        client.on_receive = got.append
        ap.send_to_client("cli", "payload", 500)
        sim.run()
        assert got == []
        assert ap.psm_backlog("cli") == 1

    def test_ps_poll_flushes_buffer(self):
        sim, _, ap, client = self._associated()
        client.transmit(frames.null_data("cli", ap.name, pm=True))
        sim.run()
        ap.send_to_client("cli", "payload", 500)
        got = []
        client.on_receive = lambda f: got.append(f.payload)
        client.transmit(frames.ps_poll("cli", ap.name))
        sim.run()
        assert got == ["payload"]

    def test_null_pm_off_clears_and_flushes(self):
        sim, _, ap, client = self._associated()
        client.transmit(frames.null_data("cli", ap.name, pm=True))
        sim.run()
        ap.send_to_client("cli", "a", 100)
        ap.send_to_client("cli", "b", 100)
        got = []
        client.on_receive = lambda f: got.append(f.payload)
        client.transmit(frames.null_data("cli", ap.name, pm=False))
        sim.run()
        assert got == ["a", "b"]
        assert not ap.client_in_psm("cli")

    def test_buffer_cap_drops_excess(self):
        sim, medium = make_world()
        ap = make_ap(sim, medium, config=ApConfig(psm_buffer_frames=3))
        client = make_client(medium)
        join(sim, ap, client)
        client.transmit(frames.null_data("cli", ap.name, pm=True))
        sim.run()
        for i in range(5):
            ap.send_to_client("cli", i, 100)
        assert ap.psm_backlog("cli") == 3
        assert ap.psm_drops == 2

    def test_unbuffered_send_ignores_psm(self):
        sim, _, ap, client = self._associated()
        client.transmit(frames.null_data("cli", ap.name, pm=True))
        sim.run()
        got = []
        client.on_receive = lambda f: got.append(f.payload)
        ap.send_unbuffered("cli", "dhcp-reply", 300)
        sim.run()
        assert got == ["dhcp-reply"]  # client happened to be listening

    def test_unbuffered_lost_when_client_away(self):
        sim, _, ap, client = self._associated()
        client.set_channel(6)  # off-channel: join traffic is just lost
        got = []
        client.on_receive = lambda f: got.append(f.payload)
        ap.send_unbuffered("cli", "dhcp-reply", 300)
        sim.run()
        client.set_channel(1)
        # Nothing buffered: hearing from the client releases nothing.
        client.transmit(frames.null_data("cli", ap.name, pm=False))
        sim.run()
        assert got == []

    def test_failed_frame_requeued_for_psm_client(self):
        """A frame racing the PSM announcement is parked, not dropped."""
        sim, _, ap, client = self._associated()
        client.transmit(frames.null_data("cli", ap.name, pm=True))
        sim.run()
        # The null was processed and the client retuned, but this frame
        # was already past the PSM check (transmitted directly).
        client.set_channel(6)
        frame = frames.data_frame(ap.name, "cli", "raced", 500)
        ap.radio.transmit(frame)
        sim.run()
        got = []
        client.set_channel(1)
        client.on_receive = lambda f: got.append(f.payload)
        client.transmit(frames.null_data("cli", ap.name, pm=False))
        sim.run()
        assert got == ["raced"]

    def test_failure_hook_is_set_by_the_first_client_frame(self):
        """A cold AP's radio has no hook; a client's ARQ failure still parks."""
        sim, medium = make_world()
        ap = make_ap(sim, medium)
        ap.start()
        sim.run(until=0.5)  # beaconing alone leaves the AP cold
        assert ap.radio.on_unicast_failure is None
        client = make_client(medium)
        join(sim, ap, client)
        assert ap.radio.on_unicast_failure == ap._on_tx_failure
        client.transmit(frames.null_data("cli", ap.name, pm=True))
        sim.run(until=sim.now + 0.5)
        client.set_channel(6)
        ap.radio.transmit(frames.data_frame(ap.name, "cli", "raced", 500))
        sim.run(until=sim.now + 0.5)
        assert [frame.payload for frame in ap._retry_buffers["cli"]] == ["raced"]

    def test_failed_frame_dropped_for_silent_departure(self):
        """Without a PSM announcement the AP gives no buffering."""
        sim, _, ap, client = self._associated()
        client.set_channel(6)  # silently away: no null, no PSM state
        ap.send_to_client("cli", "gone", 500)
        sim.run()
        got = []
        client.set_channel(1)
        client.on_receive = lambda f: got.append(f.payload)
        client.transmit(frames.null_data("cli", ap.name, pm=False))
        sim.run()
        assert got == []

    def test_retry_buffer_flushes_before_psm_buffer(self):
        """Ordering: raced frames predate PSM-buffered ones."""
        sim, _, ap, client = self._associated()
        client.transmit(frames.null_data("cli", ap.name, pm=True))
        sim.run()
        client.set_channel(6)
        frame = frames.data_frame(ap.name, "cli", "first", 500)
        ap.radio.transmit(frame)  # fails -> retry buffer (client in PSM)
        sim.run()
        ap.send_to_client("cli", "second", 500)  # PSM-buffered
        got = []
        client.set_channel(1)
        client.on_receive = lambda f: got.append(f.payload)
        client.transmit(frames.null_data("cli", ap.name, pm=False))
        sim.run()
        assert got == ["first", "second"]

    def test_client_aged_out_after_silence(self):
        sim, medium = make_world()
        config = ApConfig(client_timeout=5.0)
        ap = make_ap(sim, medium, config=config)
        ap.start()
        client = make_client(medium)
        join(sim, ap, client)
        assert "cli" in ap.associated
        client.set_channel(6)  # vanish
        sim.run(until=sim.now + 20.0)
        assert "cli" not in ap.associated


class TestUplink:
    def test_uplink_payload_routed(self):
        sim, medium = make_world()
        ap = make_ap(sim, medium)
        client = make_client(medium)
        join(sim, ap, client)
        received = []
        ap.on_uplink = lambda src, payload: received.append((src, payload))
        client.transmit(frames.data_frame("cli", ap.name, {"x": 1}, 200))
        sim.run()
        assert received == [("cli", {"x": 1})]

    def test_data_frame_with_pm_bit_enters_psm(self):
        sim, medium = make_world()
        ap = make_ap(sim, medium)
        client = make_client(medium)
        join(sim, ap, client)
        frame = frames.data_frame("cli", ap.name, "payload", 100, pm=True)
        client.transmit(frame)
        sim.run()
        assert ap.client_in_psm("cli")
